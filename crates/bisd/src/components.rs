//! Shared BISD controller building blocks: address trigger, data
//! background generator, memory-size table and comparator array.

use crate::log::{DiagnosisLog, DiagnosisRecord};
use march::DataBackground;
use sram_model::{AccessProfile, Address, DataWord, FailingBits, MemConfig, MemoryId};
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

/// The bit-parallel kernel's precomputed stepping index: which members
/// of a population segment must actually be stepped at each *global*
/// trigger address.
///
/// Built once per segment from the members'
/// [`AccessProfile`]s: a [`AccessProfile::PristineUniform`] member
/// appears nowhere (it behaves exactly as the golden model predicts,
/// so stepping it cannot produce a record), a
/// [`AccessProfile::RowLocal`] member appears at every global address
/// whose wrapped local row is one of its deviation rows, and a
/// [`AccessProfile::Opaque`] member appears everywhere. Within one
/// address the member indices are ascending — the same order the
/// per-memory walk visits them — so records emitted from this index
/// interleave identically to the oracle's.
#[derive(Debug, Clone)]
pub struct StepIndex {
    /// `active[global]` — member indices to step, ascending.
    active: Vec<Vec<u32>>,
    /// Per member: false iff the member is skipped everywhere (the
    /// pristine fast path; such members see no operations at all).
    stepped: Vec<bool>,
}

impl StepIndex {
    /// Builds the index for a segment of members with the given access
    /// profiles and word counts, under a global trigger of `max_words`
    /// addresses (local address generators wrap, so one deviation row
    /// aliases onto every `words`-periodic global address).
    ///
    /// # Panics
    ///
    /// Panics if the profile and word-count slices differ in length, or
    /// if a profile lists a row outside its member's address space.
    pub fn new(profiles: &[AccessProfile], member_words: &[u64], max_words: u64) -> Self {
        assert_eq!(profiles.len(), member_words.len(), "one profile per member");
        let mut active: Vec<Vec<u32>> = vec![Vec::new(); max_words as usize];
        let mut stepped = Vec::with_capacity(profiles.len());
        for (index, (profile, &words)) in profiles.iter().zip(member_words).enumerate() {
            match profile {
                AccessProfile::PristineUniform => {
                    stepped.push(false);
                }
                AccessProfile::Opaque => {
                    stepped.push(true);
                    for slot in &mut active {
                        slot.push(index as u32);
                    }
                }
                AccessProfile::RowLocal(rows) => {
                    stepped.push(true);
                    let mut local_rows = vec![false; words as usize];
                    for &row in rows {
                        assert!(row < words, "deviation row outside the member");
                        local_rows[row as usize] = true;
                    }
                    for (global, slot) in active.iter_mut().enumerate() {
                        if local_rows[global % words as usize] {
                            slot.push(index as u32);
                        }
                    }
                }
            }
        }
        StepIndex { active, stepped }
    }

    /// The members to step at `global`, ascending by member index.
    #[inline]
    pub fn members_at(&self, global: Address) -> &[u32] {
        &self.active[global.index() as usize]
    }

    /// True if the member is stepped at any address (false = the member
    /// is skipped entirely, retention pauses included — a pristine
    /// member holds no retention-faulted cells to decay).
    pub fn is_stepped(&self, member: usize) -> bool {
        self.stepped[member]
    }

    /// Number of members stepped at one or more addresses.
    pub fn stepped_count(&self) -> usize {
        self.stepped.iter().filter(|&&stepped| stepped).count()
    }
}

/// The comparator array of the BISD controller.
///
/// Each memory's serialised response is compared bit by bit against the
/// expected value; mismatches become [`DiagnosisRecord`]s in the run's
/// [`DiagnosisLog`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComparatorArray {
    log: DiagnosisLog,
}

impl ComparatorArray {
    /// Creates a comparator array with an empty log.
    pub fn new() -> Self {
        ComparatorArray {
            log: DiagnosisLog::new(),
        }
    }

    /// Compares one response against its expected value and records a
    /// diagnosis record if they differ. Returns the failing bit
    /// positions (empty when the response matches).
    ///
    /// # Panics
    ///
    /// Panics if the expected and observed widths differ.
    #[allow(clippy::too_many_arguments)]
    pub fn compare(
        &mut self,
        memory: MemoryId,
        address: Address,
        background: DataBackground,
        element: &str,
        expected: &DataWord,
        observed: &DataWord,
    ) -> FailingBits {
        let failing = expected.mismatches(observed);
        if !failing.is_empty() {
            self.log.push(DiagnosisRecord {
                memory,
                address,
                background,
                element: element.to_string(),
                expected: expected.clone(),
                observed: observed.clone(),
                failing_bits: failing.clone(),
            });
        }
        failing
    }

    /// The accumulated diagnosis log.
    pub fn log(&self) -> &DiagnosisLog {
        &self.log
    }

    /// Consumes the comparator and returns its log.
    pub fn into_log(self) -> DiagnosisLog {
        self.log
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
    fn step_index_aliases_rows_through_the_wrap_and_orders_members() {
        // Member 0: opaque, 8 words. Member 1: row-local {3}, 8 words —
        // aliases onto globals 3, 11, 19, 27. Member 2: pristine.
        // Member 3: row-local {0}, 4 words — aliases onto every 4th.
        let profiles = [
            AccessProfile::Opaque,
            AccessProfile::RowLocal(vec![3]),
            AccessProfile::PristineUniform,
            AccessProfile::RowLocal(vec![0]),
        ];
        let index = StepIndex::new(&profiles, &[32, 8, 16, 4], 32);
        assert_eq!(index.members_at(Address::new(3)), &[0, 1]);
        assert_eq!(index.members_at(Address::new(11)), &[0, 1]);
        assert_eq!(index.members_at(Address::new(4)), &[0, 3]);
        assert_eq!(index.members_at(Address::new(0)), &[0, 3]);
        assert_eq!(index.members_at(Address::new(1)), &[0]);
        assert!(index.is_stepped(0) && index.is_stepped(1) && index.is_stepped(3));
        assert!(!index.is_stepped(2));
        assert_eq!(index.stepped_count(), 3);
    }

    #[test]
    fn all_pristine_step_index_is_empty_everywhere() {
        let profiles = [AccessProfile::PristineUniform, AccessProfile::PristineUniform];
        let index = StepIndex::new(&profiles, &[8, 4], 8);
        for global in 0..8 {
            assert!(index.members_at(Address::new(global)).is_empty());
        }
        assert_eq!(index.stepped_count(), 0);
    }

    #[test]
    #[should_panic(expected = "deviation row outside")]
    fn step_index_rejects_out_of_range_rows() {
        let _ = StepIndex::new(&[AccessProfile::RowLocal(vec![9])], &[8], 16);
    }

    #[test]
    fn comparator_records_only_mismatches() {
        let mut comparator = ComparatorArray::new();
        let expected = DataWord::zero(4);
        let good = DataWord::zero(4);
        let bad = DataWord::from_u64(0b0100, 4);
        assert!(comparator
            .compare(
                MemoryId::new(0),
                Address::new(1),
                DataBackground::Solid,
                "M1",
                &expected,
                &good
            )
            .is_empty());
        let failing = comparator.compare(
            MemoryId::new(0),
            Address::new(2),
            DataBackground::Solid,
            "M2",
            &expected,
            &bad,
        );
        assert_eq!(failing, vec![2]);
        assert_eq!(comparator.log().len(), 1);
        let log = comparator.into_log();
        assert_eq!(log.records()[0].element, "M2");
    }
}
