//! Fault lists: ordered collections of fault instances with per-class
//! statistics.

use crate::fault::{FaultClass, MemoryFault};
use sram_model::{FaultTarget, MemError};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered collection of [`MemoryFault`]s.
///
/// Fault lists serve two roles in the reproduction: as the *ground
/// truth* produced by the random injector (so diagnosis results can be
/// scored), and as the *target fault universe* enumerated for coverage
/// analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<MemoryFault>,
}

impl FaultList {
    /// Creates an empty fault list.
    pub fn new() -> Self {
        FaultList { faults: Vec::new() }
    }

    /// Appends a fault.
    pub fn push(&mut self, fault: MemoryFault) {
        self.faults.push(fault);
    }

    /// Number of faults in the list.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterator over the faults.
    pub fn iter(&self) -> impl Iterator<Item = &MemoryFault> {
        self.faults.iter()
    }

    /// The faults as a slice.
    pub fn as_slice(&self) -> &[MemoryFault] {
        &self.faults
    }

    /// Number of faults per class, in class order.
    pub fn count_by_class(&self) -> BTreeMap<FaultClass, usize> {
        let mut counts = BTreeMap::new();
        for fault in &self.faults {
            *counts.entry(fault.class()).or_insert(0) += 1;
        }
        counts
    }

    /// Faults of one class only.
    pub fn of_class(&self, class: FaultClass) -> FaultList {
        FaultList {
            faults: self
                .faults
                .iter()
                .copied()
                .filter(|f| f.class() == class)
                .collect(),
        }
    }

    /// Injects every fault into a memory (any [`FaultTarget`]).
    ///
    /// # Errors
    ///
    /// Propagates injection errors from the memory model.
    pub fn inject_into<T: FaultTarget>(&self, target: &mut T) -> Result<(), MemError> {
        for fault in &self.faults {
            fault.inject_into(target)?;
        }
        Ok(())
    }
}

impl FromIterator<MemoryFault> for FaultList {
    fn from_iter<T: IntoIterator<Item = MemoryFault>>(iter: T) -> Self {
        FaultList {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemoryFault> for FaultList {
    fn extend<T: IntoIterator<Item = MemoryFault>>(&mut self, iter: T) {
        self.faults.extend(iter);
    }
}

impl IntoIterator for FaultList {
    type Item = MemoryFault;
    type IntoIter = std::vec::IntoIter<MemoryFault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

impl<'a> IntoIterator for &'a FaultList {
    type Item = &'a MemoryFault;
    type IntoIter = std::slice::Iter<'a, MemoryFault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

impl fmt::Display for FaultList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} faults", self.faults.len())?;
        let counts = self.count_by_class();
        if !counts.is_empty() {
            write!(f, " (")?;
            let mut first = true;
            for (class, count) in counts {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{class}: {count}")?;
                first = false;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_model::cell::CellCoord;
    use sram_model::{Address, DataWord, MemConfig, Sram};

    fn coord(addr: u64, bit: usize) -> CellCoord {
        CellCoord::new(Address::new(addr), bit)
    }

    fn sample_list() -> FaultList {
        vec![
            MemoryFault::stuck_at_0(coord(0, 0)),
            MemoryFault::stuck_at_1(coord(1, 1)),
            MemoryFault::transition_up(coord(2, 0)),
            MemoryFault::data_retention_a(coord(3, 2)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn collect_len_and_iter() {
        let list = sample_list();
        assert_eq!(list.len(), 4);
        assert!(!list.is_empty());
        assert_eq!(list.iter().count(), 4);
        assert_eq!(list.as_slice().len(), 4);
        assert_eq!((&list).into_iter().count(), 4);
        assert_eq!(list.clone().into_iter().count(), 4);
    }

    #[test]
    fn count_by_class_groups_correctly() {
        let counts = sample_list().count_by_class();
        assert_eq!(counts[&FaultClass::StuckAt], 2);
        assert_eq!(counts[&FaultClass::Transition], 1);
        assert_eq!(counts[&FaultClass::DataRetention], 1);
        assert!(!counts.contains_key(&FaultClass::Coupling));
    }

    #[test]
    fn of_class_filters_to_one_class() {
        let list = sample_list();
        assert_eq!(list.of_class(FaultClass::StuckAt).len(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut list = FaultList::new();
        list.extend(sample_list());
        list.push(MemoryFault::stuck_at_0(coord(4, 0)));
        assert_eq!(list.len(), 5);
    }

    #[test]
    fn inject_into_applies_every_fault() {
        let mut sram = Sram::new(MemConfig::new(8, 4).unwrap());
        sample_list().inject_into(&mut sram).unwrap();
        assert_eq!(sram.cell_faults().len(), 4);
        sram.write(Address::new(1), &DataWord::zero(4)).unwrap();
        assert!(sram.read(Address::new(1)).unwrap().bit(1)); // SA1 visible
    }

    #[test]
    fn display_summarises_per_class_counts() {
        let text = sample_list().to_string();
        assert!(text.starts_with("4 faults"));
        assert!(text.contains("SAF: 2"));
        assert!(text.contains("DRF: 1"));
        assert_eq!(FaultList::new().to_string(), "0 faults");
    }
}
