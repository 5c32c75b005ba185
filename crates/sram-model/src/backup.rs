//! Backup (spare) memory used to repair diagnosed faulty words.
//!
//! Both the baseline architecture (\[7,8\], Fig. 1) and the proposed
//! scheme keep a small backup memory next to each e-SRAM so that, once
//! the BISD controller has located a faulty cell, the affected word can
//! be remapped to a spare ("registered for on-chip repair"). This module
//! models word-level spare allocation and the resulting repaired view of
//! the memory.

use crate::array::Sram;
use crate::config::{Address, MemConfig};
use crate::error::MemError;
use crate::word::DataWord;
use std::collections::BTreeMap;

/// Outcome of attempting to repair a set of faulty addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Addresses that were successfully remapped to spare words.
    pub repaired: Vec<Address>,
    /// Addresses left unrepaired because the spares ran out.
    pub unrepaired: Vec<Address>,
}

impl RepairOutcome {
    /// True if every requested address received a spare.
    pub fn is_fully_repaired(&self) -> bool {
        self.unrepaired.is_empty()
    }

    /// Repair yield: fraction of requested addresses that were repaired.
    pub fn repair_ratio(&self) -> f64 {
        let total = self.repaired.len() + self.unrepaired.len();
        if total == 0 {
            1.0
        } else {
            self.repaired.len() as f64 / total as f64
        }
    }
}

/// Word-level spare storage attached to one e-SRAM.
#[derive(Debug, Clone)]
pub struct BackupMemory {
    config: MemConfig,
    spares: Vec<DataWord>,
    map: BTreeMap<u64, usize>,
    next_free: usize,
}

impl BackupMemory {
    /// Creates a backup memory with `spare_words` spare words for a
    /// memory of the given geometry.
    pub fn new(config: MemConfig, spare_words: usize) -> Self {
        BackupMemory {
            config,
            spares: vec![DataWord::zero(config.width()); spare_words],
            map: BTreeMap::new(),
            next_free: 0,
        }
    }

    /// Total number of spare words.
    pub fn capacity(&self) -> usize {
        self.spares.len()
    }

    /// Number of spare words still unallocated.
    pub fn available(&self) -> usize {
        self.capacity() - self.next_free
    }

    /// Addresses currently remapped to spares, in ascending order.
    pub fn repaired_addresses(&self) -> Vec<Address> {
        self.map.keys().map(|&a| Address::new(a)).collect()
    }

    /// True if `address` is remapped to a spare.
    pub fn is_repaired(&self, address: Address) -> bool {
        self.map.contains_key(&address.index())
    }

    /// Allocates a spare word for `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyRepaired`] if the address already has a
    /// spare, [`MemError::NoSpareAvailable`] if the spares ran out, or
    /// [`MemError::AddressOutOfRange`] for an invalid address.
    pub fn repair(&mut self, address: Address) -> Result<(), MemError> {
        self.config.check_address(address)?;
        if self.map.contains_key(&address.index()) {
            return Err(MemError::AlreadyRepaired {
                address: address.index(),
            });
        }
        if self.next_free >= self.spares.len() {
            return Err(MemError::NoSpareAvailable {
                address: address.index(),
            });
        }
        self.map.insert(address.index(), self.next_free);
        self.next_free += 1;
        Ok(())
    }

    /// Repairs every address in `addresses`, consuming spares until they
    /// run out; duplicate addresses are repaired once.
    pub fn repair_all<I: IntoIterator<Item = Address>>(&mut self, addresses: I) -> RepairOutcome {
        let mut repaired = Vec::new();
        let mut unrepaired = Vec::new();
        for address in addresses {
            match self.repair(address) {
                Ok(()) => repaired.push(address),
                Err(MemError::AlreadyRepaired { .. }) => {}
                Err(_) => unrepaired.push(address),
            }
        }
        RepairOutcome { repaired, unrepaired }
    }

    /// Writes through the repair map: repaired addresses hit the spare
    /// word, others hit the main array.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the underlying memory.
    pub fn write(&mut self, sram: &mut Sram, address: Address, data: &DataWord) -> Result<(), MemError> {
        self.config.check_address(address)?;
        self.config.check_width(data.width())?;
        if let Some(&slot) = self.map.get(&address.index()) {
            self.spares[slot] = data.clone();
            Ok(())
        } else {
            sram.write(address, data)
        }
    }

    /// Reads through the repair map.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the underlying memory.
    pub fn read(&mut self, sram: &mut Sram, address: Address) -> Result<DataWord, MemError> {
        self.config.check_address(address)?;
        if let Some(&slot) = self.map.get(&address.index()) {
            Ok(self.spares[slot].clone())
        } else {
            sram.read(address)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellCoord, CellFault};

    fn setup() -> (Sram, BackupMemory) {
        let config = MemConfig::new(8, 4).unwrap();
        (Sram::new(config), BackupMemory::new(config, 2))
    }

    #[test]
    fn repair_redirects_accesses_to_spare_words() {
        let (mut sram, mut backup) = setup();
        sram.inject_cell_fault(CellCoord::new(Address::new(3), 0), CellFault::StuckAt(false))
            .unwrap();
        backup.repair(Address::new(3)).unwrap();
        backup
            .write(&mut sram, Address::new(3), &DataWord::splat(true, 4))
            .unwrap();
        // Through the repair map, the stuck-at fault is no longer visible.
        assert_eq!(
            backup.read(&mut sram, Address::new(3)).unwrap(),
            DataWord::splat(true, 4)
        );
        // Unrepaired addresses still reach the main array.
        backup
            .write(&mut sram, Address::new(1), &DataWord::splat(true, 4))
            .unwrap();
        assert_eq!(sram.peek(Address::new(1)).unwrap(), DataWord::splat(true, 4));
    }

    #[test]
    fn repair_exhausts_spares_in_order() {
        let (_sram, mut backup) = setup();
        assert_eq!(backup.capacity(), 2);
        backup.repair(Address::new(0)).unwrap();
        backup.repair(Address::new(1)).unwrap();
        assert_eq!(backup.available(), 0);
        assert_eq!(
            backup.repair(Address::new(2)),
            Err(MemError::NoSpareAvailable { address: 2 })
        );
    }

    #[test]
    fn double_repair_is_rejected() {
        let (_sram, mut backup) = setup();
        backup.repair(Address::new(5)).unwrap();
        assert_eq!(
            backup.repair(Address::new(5)),
            Err(MemError::AlreadyRepaired { address: 5 })
        );
        assert!(backup.is_repaired(Address::new(5)));
        assert_eq!(backup.repaired_addresses(), vec![Address::new(5)]);
    }

    #[test]
    fn repair_all_reports_partial_success() {
        let (_sram, mut backup) = setup();
        let outcome = backup.repair_all(vec![
            Address::new(0),
            Address::new(0), // duplicate, silently skipped
            Address::new(1),
            Address::new(2), // no spare left
        ]);
        assert_eq!(outcome.repaired, vec![Address::new(0), Address::new(1)]);
        assert_eq!(outcome.unrepaired, vec![Address::new(2)]);
        assert!(!outcome.is_fully_repaired());
        assert!((outcome.repair_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_repair_outcome_is_fully_repaired() {
        let outcome = RepairOutcome {
            repaired: vec![],
            unrepaired: vec![],
        };
        assert!(outcome.is_fully_repaired());
        assert_eq!(outcome.repair_ratio(), 1.0);
    }

    #[test]
    fn repair_validates_address_range() {
        let (_sram, mut backup) = setup();
        assert!(matches!(
            backup.repair(Address::new(100)),
            Err(MemError::AddressOutOfRange { .. })
        ));
    }
}
