//! Shared BISD controller building blocks: address trigger, data
//! background generator, memory-size table and comparator array.

use crate::log::{DiagnosisLog, FaultSite, LocatedSites};
use march::DataBackground;
use sram_model::{Address, DataWord, FailingBits, MemConfig, MemoryId};
use std::collections::BTreeMap;

/// The global address trigger of the shared controller.
///
/// The controller only *triggers* the per-memory local address
/// generators: it counts up to the capacity of the largest memory and
/// each local generator wraps the count into its own address space
/// (Sec. 3.1), which is also how the scheme in \[7,8\] works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressTrigger {
    max_words: u64,
}

impl AddressTrigger {
    /// Creates a trigger sized for the largest memory of the population.
    ///
    /// # Panics
    ///
    /// Panics if `max_words` is zero.
    pub fn new(max_words: u64) -> Self {
        assert!(max_words > 0, "address trigger needs at least one word");
        AddressTrigger { max_words }
    }

    /// Capacity of the largest memory.
    pub fn max_words(&self) -> u64 {
        self.max_words
    }

    /// Global addresses in ascending order.
    pub fn ascending(&self) -> impl Iterator<Item = Address> {
        (0..self.max_words).map(Address::new)
    }

    /// Global addresses in descending order.
    pub fn descending(&self) -> impl Iterator<Item = Address> {
        (0..self.max_words).rev().map(Address::new)
    }

    /// Maps a global address onto a memory with `words` words (local
    /// address generators wrap around).
    pub fn local_address(&self, global: Address, words: u64) -> Address {
        global.wrapped(words)
    }
}

/// The shared data background generator.
///
/// It always produces the pattern of the widest memory; narrower
/// memories receive the low-order bits through their SPC (MSB-first
/// delivery, Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBackgroundGenerator {
    widest: usize,
}

impl DataBackgroundGenerator {
    /// Creates a generator for a population whose widest memory has
    /// `widest` IO bits.
    ///
    /// # Panics
    ///
    /// Panics if `widest` is zero.
    pub fn new(widest: usize) -> Self {
        assert!(widest > 0, "data background generator needs a non-zero width");
        DataBackgroundGenerator { widest }
    }

    /// IO width of the widest memory.
    pub fn widest_width(&self) -> usize {
        self.widest
    }

    /// The widest-memory pattern for a March operation of logical value
    /// `value` under `background`.
    ///
    /// Patterns are delivered once per March element, so only
    /// row-independent backgrounds (solid, column stripe, binary) are
    /// meaningful for the SPC-based scheme; the row argument is fixed to
    /// zero accordingly.
    pub fn pattern(&self, background: DataBackground, value: bool) -> DataWord {
        background.pattern_for(value, self.widest, 0)
    }

    /// The pattern as received by a memory of `width` IO bits after
    /// MSB-first delivery (the low-order bits of the wide pattern).
    pub fn pattern_for_width(&self, background: DataBackground, value: bool, width: usize) -> DataWord {
        self.pattern(background, value)
            .truncated_lsb(width.min(self.widest))
    }
}

/// The memory-size table stored in the BISD controller.
///
/// Knowing each memory's capacity and width lets the comparator tolerate
/// the redundant (wrapped-around) operations smaller memories see and
/// compare only the bits each memory actually has.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemorySizeTable {
    entries: BTreeMap<MemoryId, MemConfig>,
}

impl MemorySizeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MemorySizeTable {
            entries: BTreeMap::new(),
        }
    }

    /// Registers a memory.
    pub fn insert(&mut self, id: MemoryId, config: MemConfig) {
        self.entries.insert(id, config);
    }

    /// Geometry of a registered memory.
    pub fn config(&self, id: MemoryId) -> Option<MemConfig> {
        self.entries.get(&id).copied()
    }

    /// Number of registered memories.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no memory is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity (words) of the largest registered memory.
    pub fn max_words(&self) -> u64 {
        self.entries.values().map(|c| c.words()).max().unwrap_or(0)
    }

    /// IO width of the widest registered memory.
    pub fn max_width(&self) -> usize {
        self.entries.values().map(|c| c.width()).max().unwrap_or(0)
    }

    /// Iterator over registered memories in id order.
    pub fn iter(&self) -> impl Iterator<Item = (MemoryId, MemConfig)> + '_ {
        self.entries.iter().map(|(&id, &config)| (id, config))
    }
}

impl FromIterator<(MemoryId, MemConfig)> for MemorySizeTable {
    fn from_iter<T: IntoIterator<Item = (MemoryId, MemConfig)>>(iter: T) -> Self {
        MemorySizeTable {
            entries: iter.into_iter().collect(),
        }
    }
}

/// The comparator array of the BISD controller: one comparator per
/// memory of a population segment.
///
/// Each memory's serialised response is compared bit by bit against the
/// expected value, and every failing bit registers its `(address, bit)`
/// site in that memory's buffer. [`ComparatorArray::into_log`] sorts and
/// deduplicates each buffer, so the array hands over the distinct
/// located sites and the number of mismatching reads, not a record per
/// read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparatorArray {
    ids: Vec<MemoryId>,
    /// Per member: `address << 32 | bit` keys of its failing cells, in
    /// registration order.
    failing: Vec<Vec<u64>>,
    mismatches: usize,
}

impl ComparatorArray {
    /// Creates one comparator per memory, in member order.
    pub fn new(ids: impl IntoIterator<Item = MemoryId>) -> Self {
        let ids: Vec<MemoryId> = ids.into_iter().collect();
        ComparatorArray {
            failing: vec![Vec::new(); ids.len()],
            ids,
            mismatches: 0,
        }
    }

    /// Compares member `member`'s response at `address` against its
    /// expected value, registers every failing bit and returns them
    /// (empty when the response matches).
    ///
    /// # Panics
    ///
    /// Panics if the expected and observed widths differ.
    pub fn compare(
        &mut self,
        member: usize,
        address: Address,
        expected: &DataWord,
        observed: &DataWord,
    ) -> FailingBits {
        let failing_bits = expected.mismatches(observed);
        if !failing_bits.is_empty() {
            self.mismatches += 1;
            for &bit in failing_bits.iter() {
                self.register(member, address, bit);
            }
        }
        failing_bits
    }

    /// Registers one failing cell of member `member`, as a comparator
    /// does for each failing bit of a mismatching read. A repeat of the
    /// member's last registration is skipped.
    ///
    /// # Panics
    ///
    /// Panics if the address or bit does not fit in 32 bits (no memory
    /// holds more than 2^30 cells).
    pub(crate) fn register(&mut self, member: usize, address: Address, bit: usize) {
        let (address, bit) = (address.index(), bit as u64);
        assert!(
            address >> 32 == 0 && bit >> 32 == 0,
            "site outside the 32-bit key range"
        );
        let key = (address << 32) | bit;
        let buffer = &mut self.failing[member];
        if buffer.last() != Some(&key) {
            buffer.push(key);
        }
    }

    /// Counts `reads` mismatching reads whose bits were registered one
    /// by one through [`ComparatorArray::register`].
    pub(crate) fn count_mismatches(&mut self, reads: usize) {
        self.mismatches += reads;
    }

    /// The distinct registered sites, each member's sorted and
    /// deduplicated and the members concatenated in order (sorted again
    /// only if member ids do not ascend), with the mismatch count.
    pub fn into_log(self) -> DiagnosisLog {
        let mut sites = Vec::new();
        for (id, mut keys) in self.ids.into_iter().zip(self.failing) {
            keys.sort_unstable();
            keys.dedup();
            sites.extend(
                keys.into_iter()
                    .map(|key| FaultSite::new(id, Address::new(key >> 32), key as u32 as usize)),
            );
        }
        DiagnosisLog::new(LocatedSites::new(sites), self.mismatches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_trigger_wraps_smaller_memories() {
        let trigger = AddressTrigger::new(8);
        assert_eq!(trigger.max_words(), 8);
        assert_eq!(trigger.ascending().count(), 8);
        assert_eq!(trigger.descending().next(), Some(Address::new(7)));
        assert_eq!(trigger.local_address(Address::new(6), 4), Address::new(2));
        assert_eq!(trigger.local_address(Address::new(3), 4), Address::new(3));
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_word_trigger_panics() {
        let _ = AddressTrigger::new(0);
    }

    #[test]
    fn background_generator_truncates_for_narrow_memories() {
        let generator = DataBackgroundGenerator::new(8);
        assert_eq!(generator.widest_width(), 8);
        let wide = generator.pattern(DataBackground::Binary(1), false);
        let narrow = generator.pattern_for_width(DataBackground::Binary(1), false, 3);
        assert_eq!(narrow, wide.truncated_lsb(3));
        let inverted = generator.pattern(DataBackground::Solid, true);
        assert_eq!(inverted, DataWord::splat(true, 8));
    }

    #[test]
    fn size_table_reports_population_extremes() {
        let table: MemorySizeTable = vec![
            (MemoryId::new(0), MemConfig::new(512, 100).unwrap()),
            (MemoryId::new(1), MemConfig::new(64, 16).unwrap()),
        ]
        .into_iter()
        .collect();
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        assert_eq!(table.max_words(), 512);
        assert_eq!(table.max_width(), 100);
        assert_eq!(table.config(MemoryId::new(1)).unwrap().words(), 64);
        assert!(table.config(MemoryId::new(9)).is_none());
        assert_eq!(table.iter().count(), 2);
        assert_eq!(MemorySizeTable::new().max_words(), 0);
    }

    #[test]
    fn comparator_records_only_mismatches() {
        let mut comparator = ComparatorArray::new([MemoryId::new(4), MemoryId::new(6)]);
        let expected = DataWord::zero(4);
        let good = DataWord::zero(4);
        let bad = DataWord::from_u64(0b0110, 4);
        assert!(comparator
            .compare(1, Address::new(1), &expected, &good)
            .is_empty());
        assert_eq!(
            comparator.compare(1, Address::new(2), &expected, &bad),
            vec![1, 2]
        );
        assert_eq!(
            comparator.compare(1, Address::new(2), &expected, &bad),
            vec![1, 2]
        );
        comparator.register(0, Address::new(9), 3);
        comparator.count_mismatches(1);
        let log = comparator.into_log();
        assert_eq!(log.len(), 3);
        let site = |memory, address, bit| FaultSite::new(MemoryId::new(memory), Address::new(address), bit);
        assert_eq!(log.sites().all(), &[site(4, 9, 3), site(6, 2, 1), site(6, 2, 2)]);
    }
}
