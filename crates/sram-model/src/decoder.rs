//! Address-decoder model with the classical address-decoder fault classes.
//!
//! Memory-test literature distinguishes four address-decoder faults
//! (AFs): an address that activates no cell, an address that activates a
//! wrong cell, an address that activates additional cells, and a cell
//! reached by multiple addresses (the mirror image of the previous
//! class). March C- (and therefore March CW and DiagRSMarch) detects all
//! of them; the column-decoder/intra-word element that March CW adds is
//! accounted for in the `march` crate.

use crate::config::{Address, MemConfig};
use crate::error::MemError;
use std::collections::BTreeMap;
use std::fmt;

/// The kind of misbehaviour a faulty decoder exhibits for one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DecoderFaultKind {
    /// AF1: the address activates no word line; writes are lost and reads
    /// return all ones, because no cell discharges the precharged
    /// bitlines.
    NoAccess,
    /// AF2: the address activates a different row instead of its own.
    MapsTo(Address),
    /// AF3: the address activates its own row **and** an additional row.
    AlsoAccesses(Address),
}

impl fmt::Display for DecoderFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderFaultKind::NoAccess => write!(f, "AF:no-access"),
            DecoderFaultKind::MapsTo(a) => write!(f, "AF:maps-to{a}"),
            DecoderFaultKind::AlsoAccesses(a) => write!(f, "AF:also{a}"),
        }
    }
}

/// An address-decoder fault bound to the logical address it corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecoderFault {
    /// Logical address whose decoding is corrupted.
    pub address: Address,
    /// How the decoding misbehaves.
    pub kind: DecoderFaultKind,
}

impl DecoderFault {
    /// Creates a decoder fault.
    pub fn new(address: Address, kind: DecoderFaultKind) -> Self {
        DecoderFault { address, kind }
    }

    /// Every physical row whose observable behaviour this fault can
    /// influence, ascending: the first row and, when the fault drags in
    /// a second row, that (strictly greater) row.
    ///
    /// A no-access fault deviates only on its own address, as does a
    /// fault whose target is its own address. A maps-to or also-accesses
    /// fault with a distinct target deviates on the corrupted address
    /// and the target row. The set is exact: accesses to any other
    /// address decode to exactly their own row and neither read nor
    /// write the rows listed here, a no-access read returns the
    /// precharged all-ones word regardless of history, and the
    /// wired-AND of a multi-access read only combines rows inside the
    /// set.
    pub fn deviation_rows(&self) -> (Address, Option<Address>) {
        match self.kind {
            DecoderFaultKind::MapsTo(target) | DecoderFaultKind::AlsoAccesses(target)
                if target != self.address =>
            {
                (self.address.min(target), Some(self.address.max(target)))
            }
            _ => (self.address, None),
        }
    }
}

impl fmt::Display for DecoderFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind, self.address)
    }
}

/// Behavioural address decoder: maps each logical address to the set of
/// physical rows it activates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressDecoder {
    config: MemConfig,
    faults: BTreeMap<u64, DecoderFaultKind>,
}

impl AddressDecoder {
    /// Creates a fault-free decoder for the given geometry.
    pub fn new(config: MemConfig) -> Self {
        AddressDecoder {
            config,
            faults: BTreeMap::new(),
        }
    }

    /// Injects a decoder fault.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] if the fault references an
    /// address outside the memory.
    pub fn inject(&mut self, fault: DecoderFault) -> Result<(), MemError> {
        self.config.check_address(fault.address)?;
        match fault.kind {
            DecoderFaultKind::MapsTo(target) | DecoderFaultKind::AlsoAccesses(target) => {
                self.config.check_address(target)?;
            }
            DecoderFaultKind::NoAccess => {}
        }
        self.faults.insert(fault.address.index(), fault.kind);
        Ok(())
    }

    /// Removes every injected decoder fault.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Injected decoder faults, in address order.
    pub fn faults(&self) -> Vec<DecoderFault> {
        self.faults
            .iter()
            .map(|(&a, &kind)| DecoderFault::new(Address::new(a), kind))
            .collect()
    }

    /// Physical rows activated when `address` is applied.
    ///
    /// A fault-free decoder returns exactly `[address]`. The result is
    /// empty for a no-access fault and contains two rows for a
    /// multi-access fault.
    pub fn activated_rows(&self, address: Address) -> Vec<Address> {
        match self.faults.get(&address.index()) {
            None => vec![address],
            Some(DecoderFaultKind::NoAccess) => vec![],
            Some(DecoderFaultKind::MapsTo(target)) => vec![*target],
            Some(DecoderFaultKind::AlsoAccesses(extra)) => {
                if *extra == address {
                    vec![address]
                } else {
                    vec![address, *extra]
                }
            }
        }
    }

    /// True if any decoder fault is injected.
    #[inline]
    pub fn is_faulty(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Every physical row whose observable behaviour an injected
    /// decoder fault can influence, in ascending order: the union of
    /// each fault's [`DecoderFault::deviation_rows`], which documents
    /// why the set is exact.
    pub fn deviation_rows(&self) -> Vec<u64> {
        let mut rows: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for (&address, &kind) in &self.faults {
            let (first, second) = DecoderFault::new(Address::new(address), kind).deviation_rows();
            rows.insert(first.index());
            rows.extend(second.map(Address::index));
        }
        rows.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemConfig {
        MemConfig::new(16, 4).unwrap()
    }

    #[test]
    fn fault_free_decoder_is_identity() {
        let decoder = AddressDecoder::new(config());
        for a in 0..16 {
            assert_eq!(decoder.activated_rows(Address::new(a)), vec![Address::new(a)]);
        }
        assert!(!decoder.is_faulty());
        assert!(decoder.faults().is_empty());
    }

    #[test]
    fn no_access_fault_activates_nothing() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(Address::new(5), DecoderFaultKind::NoAccess))
            .unwrap();
        assert!(decoder.activated_rows(Address::new(5)).is_empty());
        assert_eq!(decoder.activated_rows(Address::new(6)), vec![Address::new(6)]);
        assert!(decoder.is_faulty());
    }

    #[test]
    fn maps_to_fault_redirects_access() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(
                Address::new(3),
                DecoderFaultKind::MapsTo(Address::new(9)),
            ))
            .unwrap();
        assert_eq!(decoder.activated_rows(Address::new(3)), vec![Address::new(9)]);
    }

    #[test]
    fn also_accesses_fault_activates_two_rows() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(
                Address::new(2),
                DecoderFaultKind::AlsoAccesses(Address::new(7)),
            ))
            .unwrap();
        assert_eq!(
            decoder.activated_rows(Address::new(2)),
            vec![Address::new(2), Address::new(7)]
        );
    }

    #[test]
    fn also_accesses_self_degenerates_to_single_access() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(
                Address::new(2),
                DecoderFaultKind::AlsoAccesses(Address::new(2)),
            ))
            .unwrap();
        assert_eq!(decoder.activated_rows(Address::new(2)), vec![Address::new(2)]);
    }

    #[test]
    fn inject_validates_addresses() {
        let mut decoder = AddressDecoder::new(config());
        assert!(decoder
            .inject(DecoderFault::new(Address::new(99), DecoderFaultKind::NoAccess))
            .is_err());
        assert!(decoder
            .inject(DecoderFault::new(
                Address::new(1),
                DecoderFaultKind::MapsTo(Address::new(99))
            ))
            .is_err());
    }

    #[test]
    fn clear_faults_restores_identity() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(Address::new(5), DecoderFaultKind::NoAccess))
            .unwrap();
        decoder.clear_faults();
        assert_eq!(decoder.activated_rows(Address::new(5)), vec![Address::new(5)]);
    }

    #[test]
    fn fault_deviation_rows_are_one_or_two_ascending_rows() {
        let rows = |address: u64, kind| DecoderFault::new(Address::new(address), kind).deviation_rows();
        let a = Address::new;
        assert_eq!(rows(5, DecoderFaultKind::NoAccess), (a(5), None));
        assert_eq!(rows(3, DecoderFaultKind::MapsTo(a(9))), (a(3), Some(a(9))));
        assert_eq!(rows(9, DecoderFaultKind::MapsTo(a(3))), (a(3), Some(a(9))));
        assert_eq!(
            rows(0, DecoderFaultKind::AlsoAccesses(a(15))),
            (a(0), Some(a(15)))
        );
        assert_eq!(
            rows(15, DecoderFaultKind::AlsoAccesses(a(0))),
            (a(0), Some(a(15)))
        );
        assert_eq!(rows(7, DecoderFaultKind::MapsTo(a(7))), (a(7), None));
        assert_eq!(rows(7, DecoderFaultKind::AlsoAccesses(a(7))), (a(7), None));
    }

    #[test]
    fn decoder_deviation_rows_are_the_union_of_its_faults() {
        let mut decoder = AddressDecoder::new(config());
        assert!(decoder.deviation_rows().is_empty());
        for fault in [
            DecoderFault::new(Address::new(12), DecoderFaultKind::MapsTo(Address::new(4))),
            DecoderFault::new(Address::new(4), DecoderFaultKind::NoAccess),
            DecoderFault::new(Address::new(1), DecoderFaultKind::AlsoAccesses(Address::new(1))),
        ] {
            decoder.inject(fault).unwrap();
        }
        assert_eq!(decoder.deviation_rows(), vec![1, 4, 12]);
    }

    #[test]
    fn display_formats() {
        let f = DecoderFault::new(Address::new(4), DecoderFaultKind::MapsTo(Address::new(2)));
        assert_eq!(f.to_string(), "AF:maps-to@0x2@0x4");
        assert_eq!(DecoderFaultKind::NoAccess.to_string(), "AF:no-access");
    }
}
