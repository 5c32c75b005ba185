//! Diagnosis records and the per-run diagnosis log.

use fault_models::MemoryFault;
use march::DataBackground;
use sram_model::{Address, FailingBits, MemoryId};
use std::fmt;
use std::sync::Arc;

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

/// One comparator-array mismatch, i.e. the diagnosis information the
/// paper says is "registered for on-chip repair or shifted out for
/// off-line analysis": the failing address, the applied data background
/// and the failing bit positions.
///
/// The expected and observed words are not stored. In the fast scheme
/// the expected word is the controller's golden word for the record's
/// memory and address at the detecting element (see
/// [`GoldenStore`](crate::GoldenStore)): the pattern last written
/// there, as the memory's SPC received it. That is the record's
/// background at the element's read value, except on a smaller memory's
/// wrapped-around revisit of a word the element already rewrote. The
/// observed word is the expected word with every bit of `failing_bits`
/// flipped. The baseline's bi-directional interface shifts out only the
/// failing bit position, so its records fix no word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisRecord {
    /// Memory in which the mismatch was observed.
    pub memory: MemoryId,
    /// Failing word address (local to that memory).
    pub address: Address,
    /// Data background active when the mismatch was observed.
    pub background: DataBackground,
    /// Label of the March element that detected the mismatch, shared by
    /// every record of that element (cloning it does not allocate).
    pub element: Arc<str>,
    /// Failing bit positions.
    pub failing_bits: FailingBits,
}

impl DiagnosisRecord {
    /// The fault sites this record contributes.
    pub fn sites(&self) -> impl Iterator<Item = FaultSite> + '_ {
        self.failing_bits
            .iter()
            .map(move |&bit| FaultSite::new(self.memory, self.address, bit))
    }
}

impl fmt::Display for DiagnosisRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] under {}: bits {:?}",
            self.memory, self.address, self.element, self.background, self.failing_bits
        )
    }
}

/// Accumulated diagnosis information of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosisLog {
    records: Vec<DiagnosisRecord>,
}

impl DiagnosisLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DiagnosisLog { records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, record: DiagnosisRecord) {
        self.records.push(record);
    }

    /// All records in detection order.
    pub fn records(&self) -> &[DiagnosisRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no mismatch was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The log's located-site index, built in one pass over its
    /// records.
    pub fn located_sites(&self) -> LocatedSites {
        LocatedSites::new(self)
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: DiagnosisLog) {
        self.records.extend(other.records);
    }

    /// Consumes the log and returns its records in detection order (the
    /// shard-merge path reorders per-worker records by operation
    /// sequence before reassembling the population log).
    pub fn into_records(self) -> Vec<DiagnosisRecord> {
        self.records
    }
}

/// A log of the given records, in the given order (the inverse of
/// [`DiagnosisLog::into_records`]).
impl From<Vec<DiagnosisRecord>> for DiagnosisLog {
    fn from(records: Vec<DiagnosisRecord>) -> Self {
        DiagnosisLog { records }
    }
}

impl Extend<DiagnosisRecord> for DiagnosisLog {
    fn extend<T: IntoIterator<Item = DiagnosisRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

/// The distinct located sites and failing words of a diagnosis log.
///
/// Built in one pass over the log (then sorted and deduplicated), it is
/// the one definition of "located" that scoring, scheme coverage,
/// repair and report rows share: per-memory views are slices and
/// membership is a binary search, so no consumer rescans the log per
/// memory or per fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocatedSites {
    /// Distinct `(memory, address, bit)` sites, ascending.
    sites: Vec<FaultSite>,
    /// Distinct `(memory, address)` failing words, ascending. A record
    /// with no failing bit still fails its word.
    words: Vec<(MemoryId, Address)>,
}

impl LocatedSites {
    /// Indexes every record of `log`: one sort of packed
    /// `(memory, address, record)` keys groups the records by failing
    /// word, then each word's failing bits are merged.
    pub fn new(log: &DiagnosisLog) -> Self {
        let records = log.records();
        let mut keys: Vec<u128> = records
            .iter()
            .enumerate()
            .map(|(index, record)| {
                let index = u32::try_from(index).expect("a log holds fewer than 2^32 records");
                (u128::from(record.memory.index()) << 96)
                    | (u128::from(record.address.index()) << 32)
                    | u128::from(index)
            })
            .collect();
        keys.sort_unstable();

        // A key's low 32 bits are its record's index.
        let record_of = |key: u128| &records[key as u32 as usize];
        let mut sites = Vec::new();
        let mut words = Vec::new();
        let mut bits = Vec::new();
        for word in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            let first = record_of(word[0]);
            words.push((first.memory, first.address));
            bits.clear();
            for &key in word {
                bits.extend_from_slice(&record_of(key).failing_bits);
            }
            bits.sort_unstable();
            bits.dedup();
            sites.extend(
                bits.iter()
                    .map(|&bit| FaultSite::new(first.memory, first.address, bit)),
            );
        }
        LocatedSites { sites, words }
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
        let start = self.words.partition_point(|&(id, _)| id < memory);
        self.words[start..]
            .iter()
            .take_while(move |&&(id, _)| id == memory)
            .map(|&(_, address)| address)
    }

    /// True if `fault`, injected into `memory`, was located: a cell
    /// fault when its own site was located, a decoder fault when any
    /// record of that memory failed its address.
    pub fn locates(&self, memory: MemoryId, fault: &MemoryFault) -> bool {
        match fault {
            MemoryFault::Cell { coord, .. } => self
                .sites
                .binary_search(&FaultSite::new(memory, coord.address, coord.bit))
                .is_ok(),
            MemoryFault::Decoder(decoder_fault) => {
                self.words.binary_search(&(memory, decoder_fault.address)).is_ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(memory: u32, address: u64, bits: Vec<usize>) -> DiagnosisRecord {
        DiagnosisRecord {
            memory: MemoryId::new(memory),
            address: Address::new(address),
            background: DataBackground::Solid,
            element: "M1".into(),
            failing_bits: bits.into(),
        }
    }

    #[test]
    fn sites_expand_failing_bits() {
        let r = record(0, 3, vec![1, 2]);
        let sites: Vec<FaultSite> = r.sites().collect();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0], FaultSite::new(MemoryId::new(0), Address::new(3), 1));
        assert_eq!(sites[0].to_string(), "mem0:@0x3[1]");
    }

    #[test]
    fn log_groups_sites_per_memory_and_deduplicates() {
        let mut log = DiagnosisLog::new();
        log.push(record(0, 3, vec![1]));
        log.push(record(0, 3, vec![1])); // duplicate observation
        log.push(record(1, 5, vec![0, 2]));
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        let located = log.located_sites();
        assert_eq!(located.of(MemoryId::new(0)).len(), 1);
        assert_eq!(located.of(MemoryId::new(1)).len(), 2);
        assert_eq!(located.len(), 3);
        assert_eq!(
            located.failing_addresses(MemoryId::new(1)).collect::<Vec<_>>(),
            vec![Address::new(5)]
        );
        assert_eq!(located.failing_addresses(MemoryId::new(7)).count(), 0);
    }

    #[test]
    fn index_orders_out_of_order_memories_and_keeps_bitless_words() {
        let mut log = DiagnosisLog::new();
        log.push(record(9, 4, vec![2, 0]));
        log.push(record(2, 6, vec![]));
        log.push(record(2, 1, vec![3]));
        log.push(record(9, 4, vec![0]));
        let located = log.located_sites();
        let id = MemoryId::new;
        assert_eq!(
            located.all(),
            &[
                FaultSite::new(id(2), Address::new(1), 3),
                FaultSite::new(id(9), Address::new(4), 0),
                FaultSite::new(id(9), Address::new(4), 2),
            ]
        );
        assert!(located.of(id(5)).is_empty());
        // A record without failing bits fails its word but locates no site.
        assert_eq!(
            located.failing_addresses(id(2)).collect::<Vec<_>>(),
            vec![Address::new(1), Address::new(6)]
        );
        assert!(located
            .of(id(2))
            .iter()
            .all(|site| site.address != Address::new(6)));
    }

    #[test]
    fn locates_matches_cells_by_site_and_decoders_by_word() {
        use sram_model::cell::CellCoord;
        use sram_model::decoder::{DecoderFault, DecoderFaultKind};
        let mut log = DiagnosisLog::new();
        log.push(record(1, 3, vec![2]));
        log.push(record(1, 8, vec![]));
        let located = log.located_sites();
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
    }

    #[test]
    fn merge_and_extend_accumulate_records() {
        let mut a = DiagnosisLog::new();
        a.push(record(0, 0, vec![0]));
        let mut b = DiagnosisLog::new();
        b.push(record(1, 1, vec![1]));
        a.merge(b);
        a.extend(vec![record(2, 2, vec![2])]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn record_display_mentions_memory_and_element() {
        let text = record(3, 9, vec![0]).to_string();
        assert!(text.contains("mem3"));
        assert!(text.contains("M1"));
    }
}
