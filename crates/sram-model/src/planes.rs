//! Packed bit-plane storage for the fault-free bulk of a memory array.
//!
//! The behavioural [`Sram`](crate::array::Sram) used to model every bit
//! cell as its own [`Cell`](crate::cell::Cell) object, which made every
//! word access `O(width)` matches over fault enums and put benchmark
//! geometries (512 × 100) out of reach for batched fault simulation.
//! [`BitPlanes`] instead packs the stored values of all cells into
//! 64-bit limbs, row-major: word reads and writes become limb copies
//! plus a top-limb mask, and only the (few) faulty cells are routed
//! through the behavioural cell state machine via a sparse overlay kept
//! by the array.

use crate::config::MemConfig;
use crate::word::DataWord;

/// Packed storage for the stored values of every cell of a memory.
///
/// Layout: row-major, `limbs_per_word` consecutive limbs per word, bit
/// `b` of word `w` at limb `w * limbs_per_word + b / 64`, bit `b % 64`.
/// Bits of a word's top limb beyond the IO width are always zero, so
/// whole-word operations can compare and copy limbs directly.
///
/// The planes also keep a *dirty-row* bitset: every mutating access
/// marks its row, and [`BitPlanes::clear`] zeroes only the marked rows.
/// A reset after a sparse programme (e.g. a single-row pruned fault
/// simulation, or one shard worker resetting between faults) therefore
/// costs O(rows touched), not O(all limbs). Invariant: any row holding
/// a non-zero limb is marked dirty (marking is a superset of non-zero).
#[derive(Debug, Clone, Eq)]
pub struct BitPlanes {
    width: usize,
    limbs_per_word: usize,
    limbs: Vec<u64>,
    /// Bitset over rows mutated since the last [`BitPlanes::clear`].
    dirty: Vec<u64>,
}

impl PartialEq for BitPlanes {
    /// Equality is over geometry and stored contents only; the dirty-row
    /// bookkeeping is an implementation detail (two planes holding the
    /// same words compare equal even if they were written differently).
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.limbs_per_word == other.limbs_per_word && self.limbs == other.limbs
    }
}

impl BitPlanes {
    /// Creates all-zero packed storage for the given geometry.
    pub fn new(config: MemConfig) -> Self {
        let width = config.width();
        let limbs_per_word = width.div_ceil(64);
        BitPlanes {
            width,
            limbs_per_word,
            limbs: vec![0u64; limbs_per_word * config.words() as usize],
            dirty: vec![0u64; (config.words() as usize).div_ceil(64)],
        }
    }

    /// Marks `row` as mutated since the last clear.
    #[inline]
    fn mark_dirty(&mut self, row: u64) {
        self.dirty[(row / 64) as usize] |= 1u64 << (row % 64);
    }

    /// Number of rows mutated since the last clear.
    #[cfg(test)]
    fn dirty_row_count(&self) -> usize {
        self.dirty.iter().map(|limb| limb.count_ones() as usize).sum()
    }

    /// IO width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of limbs backing one word.
    pub fn limbs_per_word(&self) -> usize {
        self.limbs_per_word
    }

    #[inline]
    fn base(&self, row: u64) -> usize {
        row as usize * self.limbs_per_word
    }

    /// The stored word at `row` as a fresh [`DataWord`] (a limb copy;
    /// heap-allocation-free for widths up to 128 bits).
    #[inline]
    pub fn word(&self, row: u64) -> DataWord {
        let base = self.base(row);
        match self.limbs_per_word {
            // Fixed-size copies: the plane limbs are kept canonical
            // (top-limb masked), so the inline constructor applies.
            1 => DataWord::from_inline_limbs(self.width, [self.limbs[base], 0]),
            2 => DataWord::from_inline_limbs(self.width, [self.limbs[base], self.limbs[base + 1]]),
            _ => {
                let mut out = DataWord::zero(self.width);
                out.copy_limbs_from(&self.limbs[base..base + self.limbs_per_word]);
                out
            }
        }
    }

    /// True if the stored word at `row` equals `word` (a limb compare —
    /// no `DataWord` is constructed).
    #[inline]
    pub fn word_equals(&self, row: u64, word: &DataWord) -> bool {
        let base = self.base(row);
        let limbs = word.limbs();
        match self.limbs_per_word {
            1 => self.limbs[base] == limbs[0],
            2 => self.limbs[base] == limbs[0] && self.limbs[base + 1] == limbs[1],
            _ => self.limbs[base..base + self.limbs_per_word] == *limbs,
        }
    }

    /// Compares the stored word at `row` against `expected` while also
    /// copying it into `out`, in a single pass over the limbs (the
    /// fused read-check-and-sense-latch of the packed read fast path).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the widths differ.
    #[inline]
    pub fn compare_and_copy_row(&self, row: u64, expected: &DataWord, out: &mut DataWord) -> bool {
        debug_assert_eq!(expected.width(), self.width);
        debug_assert_eq!(out.width(), self.width);
        let base = self.base(row);
        let exp = expected.limbs();
        match self.limbs_per_word {
            1 => {
                let l0 = self.limbs[base];
                out.set_inline_limbs([l0, 0]);
                l0 == exp[0]
            }
            2 => {
                let l0 = self.limbs[base];
                let l1 = self.limbs[base + 1];
                out.set_inline_limbs([l0, l1]);
                l0 == exp[0] && l1 == exp[1]
            }
            _ => {
                let slice = &self.limbs[base..base + self.limbs_per_word];
                out.copy_limbs_from(slice);
                slice == exp
            }
        }
    }

    /// Overwrites the stored word at `row` with `data` (a limb copy).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the data width does not match.
    #[inline]
    pub fn set_word(&mut self, row: u64, data: &DataWord) {
        debug_assert_eq!(data.width(), self.width, "plane write width mismatch");
        let base = self.base(row);
        self.limbs[base..base + self.limbs_per_word].copy_from_slice(data.limbs());
        self.mark_dirty(row);
    }

    /// The stored value of bit `bit` of word `row`.
    #[inline]
    pub fn bit(&self, row: u64, bit: usize) -> bool {
        debug_assert!(bit < self.width);
        (self.limbs[self.base(row) + bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Sets the stored value of bit `bit` of word `row`.
    #[inline]
    pub fn set_bit(&mut self, row: u64, bit: usize, value: bool) {
        debug_assert!(bit < self.width);
        let index = self.base(row) + bit / 64;
        let limb = &mut self.limbs[index];
        let mask = 1u64 << (bit % 64);
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
        self.mark_dirty(row);
    }

    /// The rows currently holding at least one non-zero bit, ascending.
    ///
    /// Only the rows marked dirty are scanned (non-zero rows are a
    /// subset of the dirty rows), so the cost is O(rows touched since
    /// the last clear) — the plane-level helper behind the diagnosis
    /// fast path's "which rows can deviate from the golden expectation"
    /// question.
    pub fn nonzero_rows(&self) -> Vec<u64> {
        let limbs_per_word = self.limbs_per_word;
        let mut rows = Vec::new();
        for (limb_index, &dirty_limb) in self.dirty.iter().enumerate() {
            let mut pending = dirty_limb;
            while pending != 0 {
                let row = limb_index * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let base = row * limbs_per_word;
                if self.limbs[base..base + limbs_per_word]
                    .iter()
                    .any(|&limb| limb != 0)
                {
                    rows.push(row as u64);
                }
            }
        }
        rows
    }

    /// Resets every cell to zero without reallocating.
    ///
    /// Only the rows mutated since the previous clear are zeroed (plus
    /// the dirty bitset itself), so a reset after a sparse programme is
    /// O(rows touched) — the enabling detail for pruned single-row fault
    /// simulation, where a full-plane wipe per fault would dominate.
    pub fn clear(&mut self) {
        let limbs_per_word = self.limbs_per_word;
        for (limb_index, dirty_limb) in self.dirty.iter_mut().enumerate() {
            let mut pending = *dirty_limb;
            while pending != 0 {
                let row = limb_index * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let base = row * limbs_per_word;
                self.limbs[base..base + limbs_per_word].fill(0);
            }
            *dirty_limb = 0;
        }
    }

    /// True if the top-limb mask invariant holds for every word.
    #[cfg(test)]
    fn invariant_holds(&self) -> bool {
        let top_mask = crate::word::top_limb_mask(self.width);
        self.limbs
            .iter()
            .skip(self.limbs_per_word - 1)
            .step_by(self.limbs_per_word)
            .all(|&top| top & !top_mask == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes(words: u64, width: usize) -> BitPlanes {
        BitPlanes::new(MemConfig::new(words, width).unwrap())
    }

    #[test]
    fn starts_all_zero_and_round_trips_words() {
        let mut p = planes(8, 100);
        assert_eq!(p.word(3), DataWord::zero(100));
        let mut data = DataWord::zero(100);
        data.set(0, true);
        data.set(64, true);
        data.set(99, true);
        p.set_word(3, &data);
        assert_eq!(p.word(3), data);
        assert_eq!(p.word(2), DataWord::zero(100));
        assert_eq!(p.word(4), DataWord::zero(100));
        assert!(p.invariant_holds());
    }

    #[test]
    fn bit_accessors_cross_limb_boundaries() {
        let mut p = planes(4, 65);
        p.set_bit(1, 63, true);
        p.set_bit(1, 64, true);
        assert!(p.bit(1, 63) && p.bit(1, 64));
        assert!(!p.bit(1, 0) && !p.bit(0, 63) && !p.bit(2, 64));
        p.set_bit(1, 64, false);
        assert!(!p.bit(1, 64));
        assert!(p.invariant_holds());
    }

    #[test]
    fn set_word_keeps_neighbouring_rows_intact() {
        let mut p = planes(3, 64);
        p.set_word(1, &DataWord::splat(true, 64));
        assert_eq!(p.word(0), DataWord::zero(64));
        assert_eq!(p.word(1), DataWord::splat(true, 64));
        assert_eq!(p.word(2), DataWord::zero(64));
        p.clear();
        assert_eq!(p.word(1), DataWord::zero(64));
    }

    #[test]
    fn clear_zeroes_only_and_exactly_the_dirty_rows() {
        let mut p = planes(200, 100);
        assert_eq!(p.dirty_row_count(), 0);
        p.set_word(3, &DataWord::splat(true, 100));
        p.set_bit(70, 99, true);
        p.set_bit(70, 0, true);
        p.set_word(199, &DataWord::splat(true, 100));
        assert_eq!(p.dirty_row_count(), 3);
        p.clear();
        assert_eq!(p.dirty_row_count(), 0);
        for row in 0..200u64 {
            assert_eq!(p.word(row), DataWord::zero(100), "row {row} not cleared");
        }
        assert!(p.invariant_holds());
        // Clearing a clean plane is a no-op.
        p.clear();
        assert_eq!(p.dirty_row_count(), 0);
    }

    #[test]
    fn nonzero_rows_track_contents_not_bookkeeping() {
        let mut p = planes(200, 100);
        assert!(p.nonzero_rows().is_empty());
        p.set_word(7, &DataWord::splat(true, 100));
        p.set_bit(150, 99, true);
        // A dirty row written back to zero must not count as non-zero.
        p.set_word(42, &DataWord::splat(true, 100));
        p.set_word(42, &DataWord::zero(100));
        assert_eq!(p.nonzero_rows(), vec![7, 150]);
        assert_eq!(p.dirty_row_count(), 3);
        p.clear();
        assert!(p.nonzero_rows().is_empty());
    }

    #[test]
    fn equality_ignores_dirty_bookkeeping() {
        let mut a = planes(8, 65);
        let mut b = planes(8, 65);
        a.set_word(2, &DataWord::splat(true, 65));
        a.set_word(2, &DataWord::zero(65));
        a.set_bit(5, 64, true);
        b.set_bit(5, 64, true);
        // `a` has an extra dirty row (2) but identical contents.
        assert_eq!(a, b);
        assert_ne!(a.dirty_row_count(), b.dirty_row_count());
    }

    #[test]
    fn geometry_accessors() {
        let p = planes(2, 100);
        assert_eq!(p.width(), 100);
        assert_eq!(p.limbs_per_word(), 2);
        assert_eq!(planes(2, 64).limbs_per_word(), 1);
        assert_eq!(planes(2, 65).limbs_per_word(), 2);
    }
}
