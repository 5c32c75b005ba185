//! Located fault sites and the per-run diagnosis log.

use fault_models::MemoryFault;
use sram_model::{Address, MemoryId};
use std::fmt;

/// A located faulty bit cell: memory, word address and bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultSite {
    /// Memory the faulty cell belongs to.
    pub memory: MemoryId,
    /// Word address of the faulty cell.
    pub address: Address,
    /// Bit position within the word.
    pub bit: usize,
}

impl FaultSite {
    /// Creates a fault site.
    pub fn new(memory: MemoryId, address: Address, bit: usize) -> Self {
        FaultSite { memory, address, bit }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}[{}]", self.memory, self.address, self.bit)
    }
}

/// The diagnosis information of one run, what the paper's comparator
/// array registers "for on-chip repair or shifted out for off-line
/// analysis": the distinct located sites, plus how many reads
/// mismatched on the way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosisLog {
    sites: LocatedSites,
    mismatches: usize,
}

impl DiagnosisLog {
    /// A log of the given sites, located by `mismatches` mismatching
    /// reads (the baseline counts one per located site).
    pub fn new(sites: LocatedSites, mismatches: usize) -> Self {
        DiagnosisLog { sites, mismatches }
    }

    /// The distinct located sites.
    pub fn sites(&self) -> &LocatedSites {
        &self.sites
    }

    /// Number of mismatching reads.
    pub fn len(&self) -> usize {
        self.mismatches
    }

    /// True if no read mismatched.
    pub fn is_empty(&self) -> bool {
        self.mismatches == 0
    }

    /// Concatenates logs of disjoint member ranges, in member order.
    pub(crate) fn concat(logs: impl IntoIterator<Item = DiagnosisLog>) -> Self {
        let mut sites = Vec::new();
        let mut mismatches = 0;
        for log in logs {
            sites.extend(log.sites.sites);
            mismatches += log.mismatches;
        }
        DiagnosisLog::new(LocatedSites::new(sites), mismatches)
    }
}

/// The distinct located sites of a diagnosis, ascending.
///
/// It is the one definition of "located" that scoring, scheme coverage,
/// repair and report rows share: per-memory views are slices and
/// membership is a binary search. Every mismatching read fails at least
/// one bit, so the failing words are the addresses of the sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocatedSites {
    /// Distinct `(memory, address, bit)` sites, ascending.
    sites: Vec<FaultSite>,
}

impl LocatedSites {
    /// Indexes sites given in any order, duplicates allowed. Sites that
    /// are already strictly ascending, as the schemes hand them over
    /// when member ids ascend, are only checked.
    pub fn new(mut sites: Vec<FaultSite>) -> Self {
        if !sites.windows(2).all(|pair| pair[0] < pair[1]) {
            sites.sort_unstable();
            sites.dedup();
        }
        LocatedSites { sites }
    }

    /// Total number of distinct located sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if no site was located.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Every distinct site, ordered by memory, address and bit.
    pub fn all(&self) -> &[FaultSite] {
        &self.sites
    }

    /// The distinct sites of one memory, ordered by address and bit.
    pub fn of(&self, memory: MemoryId) -> &[FaultSite] {
        let start = self.sites.partition_point(|site| site.memory < memory);
        let len = self.sites[start..].partition_point(|site| site.memory == memory);
        &self.sites[start..start + len]
    }

    /// The distinct failing word addresses of one memory, ascending
    /// (the repair granularity).
    pub fn failing_addresses(&self, memory: MemoryId) -> impl Iterator<Item = Address> + '_ {
        self.of(memory)
            .chunk_by(|a, b| a.address == b.address)
            .map(|word| word[0].address)
    }

    /// True if `fault`, injected into `memory`, was located: a cell
    /// fault when its own site was located, a decoder fault when any
    /// site of that memory lies at its address.
    pub fn locates(&self, memory: MemoryId, fault: &MemoryFault) -> bool {
        match fault {
            MemoryFault::Cell { coord, .. } => self
                .sites
                .binary_search(&FaultSite::new(memory, coord.address, coord.bit))
                .is_ok(),
            MemoryFault::Decoder(decoder_fault) => {
                let start = self
                    .sites
                    .partition_point(|site| (site.memory, site.address) < (memory, decoder_fault.address));
                self.sites
                    .get(start)
                    .is_some_and(|site| (site.memory, site.address) == (memory, decoder_fault.address))
            }
        }
    }
}

impl FromIterator<FaultSite> for LocatedSites {
    fn from_iter<T: IntoIterator<Item = FaultSite>>(iter: T) -> Self {
        LocatedSites::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(memory: u32, address: u64, bit: usize) -> FaultSite {
        FaultSite::new(MemoryId::new(memory), Address::new(address), bit)
    }

    #[test]
    fn site_display_names_memory_address_and_bit() {
        assert_eq!(site(0, 3, 1).to_string(), "mem0:@0x3[1]");
    }

    #[test]
    fn log_groups_sites_per_memory_and_deduplicates() {
        let located: LocatedSites = [site(0, 3, 1), site(0, 3, 1), site(1, 5, 0), site(1, 5, 2)]
            .into_iter()
            .collect();
        let log = DiagnosisLog::new(located, 3);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        let located = log.sites();
        assert_eq!(located.of(MemoryId::new(0)).len(), 1);
        assert_eq!(located.of(MemoryId::new(1)).len(), 2);
        assert_eq!(located.len(), 3);
        assert_eq!(
            located.failing_addresses(MemoryId::new(1)).collect::<Vec<_>>(),
            vec![Address::new(5)]
        );
        assert_eq!(located.failing_addresses(MemoryId::new(7)).count(), 0);
        assert!(DiagnosisLog::default().is_empty());
    }

    #[test]
    fn index_orders_out_of_order_memories_and_deduplicates() {
        let located: LocatedSites = [
            site(9, 4, 2),
            site(9, 4, 0),
            site(2, 6, 1),
            site(2, 1, 3),
            site(9, 4, 0),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            located.all(),
            &[site(2, 1, 3), site(2, 6, 1), site(9, 4, 0), site(9, 4, 2)]
        );
        assert!(located.of(MemoryId::new(5)).is_empty());
        assert_eq!(
            located.failing_addresses(MemoryId::new(2)).collect::<Vec<_>>(),
            vec![Address::new(1), Address::new(6)]
        );
        assert_eq!(
            located.failing_addresses(MemoryId::new(9)).collect::<Vec<_>>(),
            vec![Address::new(4)]
        );
    }

    #[test]
    fn concatenated_logs_add_their_mismatches_and_stay_ascending() {
        let low = DiagnosisLog::new([site(0, 0, 0)].into_iter().collect(), 2);
        let high = DiagnosisLog::new([site(3, 1, 1), site(3, 0, 1)].into_iter().collect(), 5);
        let ascending = DiagnosisLog::concat([low.clone(), high.clone()]);
        let descending = DiagnosisLog::concat([high, low]);
        assert_eq!(ascending, descending);
        assert_eq!(ascending.len(), 7);
        assert_eq!(
            ascending.sites().all(),
            &[site(0, 0, 0), site(3, 0, 1), site(3, 1, 1)]
        );
    }

    #[test]
    fn locates_matches_cells_by_site_and_decoders_by_word() {
        use sram_model::cell::CellCoord;
        use sram_model::decoder::{DecoderFault, DecoderFaultKind};
        let located: LocatedSites = [site(1, 3, 2), site(1, 8, 0), site(2, 4, 1)]
            .into_iter()
            .collect();
        let cell = |address, bit| MemoryFault::stuck_at_0(CellCoord::new(Address::new(address), bit));
        let decoder = |address| {
            MemoryFault::decoder(DecoderFault::new(
                Address::new(address),
                DecoderFaultKind::NoAccess,
            ))
        };
        let one = MemoryId::new(1);
        assert!(located.locates(one, &cell(3, 2)));
        assert!(!located.locates(one, &cell(3, 1)));
        assert!(!located.locates(MemoryId::new(0), &cell(3, 2)));
        assert!(located.locates(one, &decoder(3)));
        assert!(located.locates(one, &decoder(8)));
        assert!(!located.locates(one, &decoder(4)));
        assert!(!located.locates(one, &decoder(9)));
        assert!(located.locates(MemoryId::new(2), &decoder(4)));
    }
}
