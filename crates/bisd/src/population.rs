//! Structure-of-arrays golden state for the per-memory diagnosis oracle.
//!
//! The fast scheme's per-memory kernel steps every member at every
//! global trigger address, so its controller tracks the *expected*
//! (golden) contents of every memory to tolerate the wrapped-around
//! operations on smaller memories. Holding that state as one
//! `Vec<DataWord>` per memory would make every write clone a pattern
//! word into each memory's golden vector: `O(population × width)` work
//! per operation.
//!
//! [`GoldenStore`] restructures the state around what actually varies.
//! All memories see the same logical write stream (the same value at
//! the same global address), so the golden word of memory `m` at local
//! address `l` is fully determined by `(background of the phase that
//! last wrote l, logical value written, IO width of m)`:
//!
//! * one **value-class** per distinct word count, holding the last
//!   written logical value per local address in shared packed
//!   [`BitPlanes`] plus the phase epoch of that write — a write updates
//!   `O(distinct word counts)` bits, not `O(memories)` words;
//! * one **pattern set per background** (phase), not per memory: a
//!   `[phase][distinct width][value]` matrix of pattern words built
//!   once per run, borrowed on every read comparison.
//!
//! The bit-parallel kernel needs none of this: it walks each stepped
//! member on its own and remembers the last word delivered to each of
//! that member's rows.

use crate::components::DataBackgroundGenerator;
use march::DataBackground;
use sram_model::{Address, BitPlanes, DataWord, MemConfig};

/// Epoch marker for "never written since power-on".
const NEVER: u32 = u32::MAX;

/// Per-memory membership in the shared SoA state.
#[derive(Debug, Clone, Copy)]
struct Member {
    words: u64,
    value_class: usize,
    width_class: usize,
}

/// Shared last-written-value state for all memories of one word count.
#[derive(Debug, Clone)]
struct ValueClass {
    words: u64,
    /// Phase index of the last write per local address ([`NEVER`] for
    /// untouched addresses).
    epoch: Vec<u32>,
    /// Last written logical value per local address, packed (one
    /// 1-bit-wide plane row per address).
    value: BitPlanes,
}

/// SoA golden-state store for a population of memories under diagnosis.
#[derive(Debug, Clone)]
pub struct GoldenStore {
    members: Vec<Member>,
    classes: Vec<ValueClass>,
    /// `phase_patterns[phase][width_class][logical value]`.
    phase_patterns: Vec<Vec<[DataWord; 2]>>,
    /// Power-on (all-zero) golden word per width class.
    pristine: Vec<DataWord>,
}

impl GoldenStore {
    /// Builds the store for a population and the backgrounds of the
    /// schedule's phases (in execution order).
    ///
    /// # Panics
    ///
    /// Panics if the population is empty or `backgrounds` exceeds the
    /// epoch range (practically unreachable: `u32::MAX - 1` phases).
    pub fn new(
        configs: &[MemConfig],
        generator: &DataBackgroundGenerator,
        backgrounds: &[DataBackground],
    ) -> Self {
        assert!(!configs.is_empty(), "golden store needs at least one memory");
        assert!(
            backgrounds.len() < NEVER as usize,
            "phase count exceeds the epoch range"
        );
        let mut classes: Vec<ValueClass> = Vec::new();
        let mut widths: Vec<usize> = Vec::new();
        let members = configs
            .iter()
            .map(|config| {
                let words = config.words();
                let value_class = match classes.iter().position(|c| c.words == words) {
                    Some(index) => index,
                    None => {
                        classes.push(ValueClass {
                            words,
                            epoch: vec![NEVER; words as usize],
                            value: BitPlanes::new(
                                MemConfig::new(words, 1).expect("value plane geometry is valid"),
                            ),
                        });
                        classes.len() - 1
                    }
                };
                let width = config.width();
                let width_class = match widths.iter().position(|&w| w == width) {
                    Some(index) => index,
                    None => {
                        widths.push(width);
                        widths.len() - 1
                    }
                };
                Member {
                    words,
                    value_class,
                    width_class,
                }
            })
            .collect();
        let phase_patterns = backgrounds
            .iter()
            .map(|&background| {
                widths
                    .iter()
                    .map(|&width| {
                        [
                            generator.pattern_for_width(background, false, width),
                            generator.pattern_for_width(background, true, width),
                        ]
                    })
                    .collect()
            })
            .collect();
        let pristine = widths.iter().map(|&width| DataWord::zero(width)).collect();
        GoldenStore {
            members,
            classes,
            phase_patterns,
            pristine,
        }
    }

    /// Word count of one member.
    pub fn member_words(&self, member: usize) -> u64 {
        self.members[member].words
    }

    /// Records a write of logical `value` broadcast at `global` during
    /// phase `phase`: every value class updates its (wrapped) local
    /// address — `O(distinct word counts)`, not `O(memories)`.
    ///
    /// NWRC writes record identically: they succeed on good cells, so
    /// the controller's expectation matches a normal write.
    pub fn record_write(&mut self, phase: usize, global: Address, value: bool) {
        debug_assert!(phase < self.phase_patterns.len(), "phase out of schedule range");
        for class in &mut self.classes {
            let local = global.wrapped(class.words).index();
            class.epoch[local as usize] = phase as u32;
            class.value.set_bit(local, 0, value);
        }
    }

    /// The golden word of `member` at its local address `local`: the
    /// pattern of the phase that last wrote the address (materialised
    /// for the member's width), or the pristine all-zero word if never
    /// written.
    pub fn expected_at(&self, member: usize, local: Address) -> &DataWord {
        let info = self.members[member];
        let class = &self.classes[info.value_class];
        let epoch = class.epoch[local.index() as usize];
        if epoch == NEVER {
            &self.pristine[info.width_class]
        } else {
            let value = class.value.bit(local.index(), 0);
            &self.phase_patterns[epoch as usize][info.width_class][usize::from(value)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> GoldenStore {
        // Two word counts (32, 16) and two widths (8, 4) across three
        // memories; 16×8 shares the value class of 16×4 and the width
        // class of 32×8.
        let configs = [
            MemConfig::new(32, 8).unwrap(),
            MemConfig::new(16, 4).unwrap(),
            MemConfig::new(16, 8).unwrap(),
        ];
        let generator = DataBackgroundGenerator::new(8);
        GoldenStore::new(
            &configs,
            &generator,
            &[DataBackground::Solid, DataBackground::Binary(0)],
        )
    }

    #[test]
    fn classes_deduplicate_word_counts_and_widths() {
        let s = store();
        assert_eq!(s.members.len(), 3);
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.member_words(1), 16);
        assert_eq!(s.members[0].width_class, s.members[2].width_class);
        let class_widths: Vec<usize> = s.pristine.iter().map(DataWord::width).collect();
        assert_eq!(class_widths, [8, 4]);
    }

    #[test]
    fn pristine_expectations_are_all_zero_words() {
        let s = store();
        assert_eq!(s.expected_at(0, Address::new(5)), &DataWord::zero(8));
        assert_eq!(s.expected_at(1, Address::new(5)), &DataWord::zero(4));
    }

    #[test]
    fn writes_update_every_class_through_the_wrap() {
        let mut s = store();
        // Global address 20 wraps to 4 on the 16-word class.
        s.record_write(0, Address::new(20), true);
        assert_eq!(s.expected_at(0, Address::new(20)), &DataWord::splat(true, 8));
        assert_eq!(s.expected_at(1, Address::new(4)), &DataWord::splat(true, 4));
        assert_eq!(s.expected_at(2, Address::new(4)), &DataWord::splat(true, 8));
        // Untouched addresses stay pristine.
        assert_eq!(s.expected_at(0, Address::new(4)), &DataWord::zero(8));
        // Overwriting with the background value flips the expectation.
        s.record_write(0, Address::new(20), false);
        assert_eq!(s.expected_at(0, Address::new(20)), &DataWord::zero(8));
    }

    #[test]
    fn expectations_remember_the_background_of_the_writing_phase() {
        let generator = DataBackgroundGenerator::new(8);
        let binary0 = generator.pattern_for_width(DataBackground::Binary(0), false, 8);
        let mut s = store();
        // An address written under phase 0 (solid) keeps its solid
        // pattern while the run is in phase 1 (binary 0)...
        s.record_write(0, Address::new(3), true);
        assert_eq!(s.expected_at(0, Address::new(3)), &DataWord::splat(true, 8));
        // ...and adopts the new background only once rewritten.
        s.record_write(1, Address::new(3), false);
        assert_eq!(s.expected_at(0, Address::new(3)), &binary0);
    }

    #[test]
    #[should_panic(expected = "at least one memory")]
    fn empty_population_panics() {
        let generator = DataBackgroundGenerator::new(8);
        let _ = GoldenStore::new(&[], &generator, &[DataBackground::Solid]);
    }
}
