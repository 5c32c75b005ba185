//! Arbitrary-width data words and standard memory-test data backgrounds.

use crate::error::MemError;
use std::fmt;

/// An arbitrary-width binary word, bit 0 being the least significant bit.
///
/// The benchmark e-SRAM of the paper is 100 bits wide, so a fixed-size
/// integer is not sufficient; `DataWord` stores its bits in 64-bit limbs
/// and carries its width explicitly. Widths of co-existing memories may
/// differ (the paper's SPC discussion uses `c = 4` and `c' = 3`), so all
/// port operations validate widths at run time.
#[derive(Debug)]
pub struct DataWord {
    width: usize,
    limbs: LimbBuf,
}

/// Number of limbs stored inline (words up to 128 bits — including the
/// paper's 100-bit benchmark width — never touch the heap).
const INLINE_LIMBS: usize = 2;

/// Limb storage: a fixed inline array for widths up to
/// `64 * INLINE_LIMBS` bits, a heap vector beyond. The variant is fully
/// determined by the width (constructors enforce it), so equality can
/// compare limb slices directly.
#[derive(Debug, Clone)]
enum LimbBuf {
    /// Widths `1..=128`; limbs beyond the word's limb count stay zero.
    Inline([u64; INLINE_LIMBS]),
    /// Widths above 128 bits.
    Heap(Vec<u64>),
}

/// Mask selecting the valid bits of the top (most significant) limb of a
/// word of `width` bits.
pub(crate) fn top_limb_mask(width: usize) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        rem => (1u64 << rem) - 1,
    }
}

impl Clone for DataWord {
    #[inline]
    fn clone(&self) -> Self {
        DataWord {
            width: self.width,
            limbs: self.limbs.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        // Keep hot paths (sense-amp state updates, golden-word
        // maintenance) allocation-free: inline buffers are plain copies
        // and `Vec::clone_from` reuses the heap allocation.
        self.width = source.width;
        match (&mut self.limbs, &source.limbs) {
            (LimbBuf::Inline(dst), LimbBuf::Inline(src)) => *dst = *src,
            (LimbBuf::Heap(dst), LimbBuf::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialEq for DataWord {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.limbs() == other.limbs()
    }
}

impl Eq for DataWord {}

impl std::hash::Hash for DataWord {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.limbs().hash(state);
    }
}

impl DataWord {
    fn limb_count(width: usize) -> usize {
        width.div_ceil(64)
    }

    /// Creates an all-zero word of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[inline]
    pub fn zero(width: usize) -> Self {
        assert!(width > 0, "data word width must be non-zero");
        let limbs = if width <= 64 * INLINE_LIMBS {
            LimbBuf::Inline([0; INLINE_LIMBS])
        } else {
            LimbBuf::Heap(vec![0u64; DataWord::limb_count(width)])
        };
        DataWord { width, limbs }
    }

    /// Creates a word of the given width with every bit set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn splat(value: bool, width: usize) -> Self {
        let mut word = DataWord::zero(width);
        if value {
            let limbs = word.limbs_mut();
            for limb in limbs.iter_mut() {
                *limb = u64::MAX;
            }
            let last = limbs.len() - 1;
            limbs[last] &= top_limb_mask(width);
        }
        word
    }

    /// Creates a word directly from its 64-bit limbs (LSB limb first).
    ///
    /// Bits of the top limb beyond `width` are masked off so that words
    /// built from limbs compare equal to words built bit by bit.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `limbs.len() != width.div_ceil(64)`.
    pub fn from_limbs(width: usize, limbs: Vec<u64>) -> Self {
        assert!(width > 0, "data word width must be non-zero");
        assert_eq!(
            limbs.len(),
            DataWord::limb_count(width),
            "limb count must match width"
        );
        let mut word = DataWord::zero(width);
        word.copy_limbs_from(&limbs);
        word
    }

    /// Overwrites the word's limbs from a slice of the same limb count,
    /// masking the top limb. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len() != width.div_ceil(64)`.
    #[inline]
    pub fn copy_limbs_from(&mut self, limbs: &[u64]) {
        let width = self.width;
        let dst = self.limbs_mut();
        dst.copy_from_slice(limbs);
        let last = dst.len() - 1;
        dst[last] &= top_limb_mask(width);
    }

    /// Builds a word of `width <= 128` directly from its (already
    /// masked) inline limbs — the zero-cost constructor the packed
    /// planes use on the read hot path.
    ///
    /// Callers must guarantee that bits beyond `width` are zero.
    #[inline]
    pub(crate) fn from_inline_limbs(width: usize, limbs: [u64; INLINE_LIMBS]) -> Self {
        debug_assert!(width > 0 && width <= 64 * INLINE_LIMBS);
        debug_assert!(
            {
                let mut canonical = limbs;
                if width <= 64 {
                    canonical[1] = 0;
                }
                canonical[DataWord::limb_count(width) - 1] &= top_limb_mask(width);
                canonical == limbs
            },
            "from_inline_limbs requires masked limbs"
        );
        DataWord {
            width,
            limbs: LimbBuf::Inline(limbs),
        }
    }

    /// Overwrites an inline word's limbs from an (already masked) limb
    /// pair — the allocation- and loop-free sibling of
    /// [`DataWord::copy_limbs_from`] used on the packed read hot path.
    ///
    /// Callers must guarantee `width <= 128` and masked input limbs.
    #[inline]
    pub(crate) fn set_inline_limbs(&mut self, limbs: [u64; INLINE_LIMBS]) {
        debug_assert!(self.width <= 64 * INLINE_LIMBS);
        match &mut self.limbs {
            LimbBuf::Inline(dst) => *dst = limbs,
            LimbBuf::Heap(_) => unreachable!("inline limbs on a heap word"),
        }
    }

    /// The 64-bit limbs backing the word, LSB limb first. Bits beyond
    /// `width` in the top limb are always zero.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        let count = DataWord::limb_count(self.width);
        match &self.limbs {
            LimbBuf::Inline(limbs) => &limbs[..count],
            LimbBuf::Heap(limbs) => limbs,
        }
    }

    #[inline]
    fn limbs_mut(&mut self) -> &mut [u64] {
        let count = DataWord::limb_count(self.width);
        match &mut self.limbs {
            LimbBuf::Inline(limbs) => &mut limbs[..count],
            LimbBuf::Heap(limbs) => limbs,
        }
    }

    /// Creates a word from an iterator of bits, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn from_bits_lsb_first<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        assert!(!bits.is_empty(), "data word must have at least one bit");
        let mut word = DataWord::zero(bits.len());
        for (index, bit) in bits.iter().enumerate() {
            word.set(index, *bit);
        }
        word
    }

    /// Creates a word of width `width` from the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width > 0 && width <= 64, "from_u64 supports widths 1..=64");
        let mut word = DataWord::zero(width);
        for bit in 0..width {
            word.set(bit, (value >> bit) & 1 == 1);
        }
        word
    }

    /// Checkerboard background: bit `i` of word at row `row` is
    /// `(i + row) % 2 == 0` inverted or not depending on `inverted`.
    ///
    /// Checkerboard backgrounds are part of the DiagRSMarch extension in
    /// the baseline scheme and of March CW's multiple data backgrounds.
    pub fn checkerboard(width: usize, row: u64, inverted: bool) -> Self {
        let mut word = DataWord::zero(width);
        for bit in 0..width {
            let phase = (bit as u64 + row).is_multiple_of(2);
            word.set(bit, phase ^ inverted);
        }
        word
    }

    /// Column-stripe background: even bit positions carry `!inverted`,
    /// odd positions carry `inverted`, independent of the row.
    pub fn column_stripe(width: usize, inverted: bool) -> Self {
        let mut word = DataWord::zero(width);
        for bit in 0..width {
            word.set(bit, (bit % 2 == 0) ^ inverted);
        }
        word
    }

    /// Row-stripe background: the whole word is `row % 2 == 0` XOR `inverted`.
    pub fn row_stripe(width: usize, row: u64, inverted: bool) -> Self {
        DataWord::splat(row.is_multiple_of(2) ^ inverted, width)
    }

    /// Width of the word in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns bit `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    #[inline]
    pub fn bit(&self, index: usize) -> bool {
        assert!(
            index < self.width,
            "bit index {index} out of range for width {}",
            self.width
        );
        (self.limbs()[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Fallible accessor for bit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BitOutOfRange`] if `index >= width`.
    pub fn try_bit(&self, index: usize) -> Result<bool, MemError> {
        if index < self.width {
            Ok(self.bit(index))
        } else {
            Err(MemError::BitOutOfRange {
                bit: index,
                width: self.width,
            })
        }
    }

    /// Sets bit `index` (LSB = 0) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.width,
            "bit index {index} out of range for width {}",
            self.width
        );
        let limb = &mut self.limbs_mut()[index / 64];
        let mask = 1u64 << (index % 64);
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// Returns a copy with every bit inverted.
    pub fn inverted(&self) -> Self {
        let mut out = self.clone();
        let width = self.width;
        let limbs = out.limbs_mut();
        for limb in limbs.iter_mut() {
            *limb = !*limb;
        }
        let last = limbs.len() - 1;
        limbs[last] &= top_limb_mask(width);
        out
    }

    /// Bitwise XOR with another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn xor(&self, other: &DataWord) -> DataWord {
        assert_eq!(self.width, other.width, "xor requires equal widths");
        let mut out = self.clone();
        for (limb, o) in out.limbs_mut().iter_mut().zip(other.limbs()) {
            *limb ^= o;
        }
        out
    }

    /// Bitwise AND with another word of the same width, in place.
    ///
    /// This is the wired-AND the precharged bitlines compute when a
    /// decoder fault activates several rows at once.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    pub fn and_assign(&mut self, other: &DataWord) {
        assert_eq!(self.width, other.width, "and_assign requires equal widths");
        for (limb, o) in self.limbs_mut().iter_mut().zip(other.limbs()) {
            *limb &= o;
        }
    }

    /// Indices of bits set to one.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (index, &limb) in self.limbs().iter().enumerate() {
            let mut rest = limb;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                out.push(index * 64 + bit);
                rest &= rest - 1;
            }
        }
        out
    }

    /// Number of bits set to one.
    pub fn count_ones(&self) -> usize {
        self.limbs().iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Returns the bit positions where `self` and `other` differ.
    ///
    /// This is what the BISD comparator array computes per memory: the
    /// failing bit positions of a response against the expected value.
    ///
    /// Allocation-free when at most [`FailingBits::INLINE`] bits differ
    /// — which covers agreement and the typical one- or two-bit fault
    /// signature on the fault-simulation hot path.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    pub fn mismatches(&self, other: &DataWord) -> FailingBits {
        assert_eq!(self.width, other.width, "mismatches requires equal widths");
        let mut out = FailingBits::new();
        for (index, (a, b)) in self.limbs().iter().zip(other.limbs()).enumerate() {
            let mut diff = a ^ b;
            while diff != 0 {
                out.push(index * 64 + diff.trailing_zeros() as usize);
                diff &= diff - 1;
            }
        }
        out
    }

    /// Bits of the word, LSB first.
    pub fn bits_lsb_first(&self) -> Vec<bool> {
        (0..self.width).map(|b| self.bit(b)).collect()
    }

    /// Bits of the word, MSB first.
    ///
    /// The paper's SPC delivers patterns MSB first (Sec. 3.2) so that
    /// narrower memories receive the correct low-order background bits.
    pub fn bits_msb_first(&self) -> Vec<bool> {
        (0..self.width).rev().map(|b| self.bit(b)).collect()
    }

    /// Truncates the word to its `new_width` least significant bits.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero or greater than the current width.
    pub fn truncated_lsb(&self, new_width: usize) -> DataWord {
        assert!(new_width > 0 && new_width <= self.width);
        DataWord::from_bits_lsb_first((0..new_width).map(|b| self.bit(b)))
    }

    /// Interprets the word as a `u64` if it fits.
    pub fn as_u64(&self) -> Option<u64> {
        let limbs = self.limbs();
        if limbs[1..].iter().any(|&l| l != 0) {
            return None;
        }
        Some(limbs[0])
    }
}

impl fmt::Display for DataWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in (0..self.width).rev() {
            write!(f, "{}", if self.bit(bit) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for DataWord {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        DataWord::from_bits_lsb_first(iter)
    }
}

/// A failing-bit list with inline storage for short lists.
///
/// The March engine materialises one of these per failure record
/// (one per mismatching read, tens of thousands per universe when the
/// per-fault path simulates at benchmark scale), and nearly every real
/// record flags only one or two bit positions (a cell fault corrupts
/// one cell, so a single read mismatches in exactly one bit). Storing up to [`FailingBits::INLINE`]
/// positions inline removes the per-record heap allocation that
/// otherwise dominates record materialisation once enough records are
/// live to pressure the allocator; longer lists (e.g. decoder faults
/// mismatching a whole word) spill transparently to a `Vec`.
///
/// Dereferences to `[usize]`, so reading code treats it exactly like
/// the `Vec<usize>` it replaces.
#[derive(Clone, Default)]
pub struct FailingBits {
    inline: [usize; FailingBits::INLINE],
    len: u8,
    spill: Vec<usize>,
}

impl FailingBits {
    /// Number of bit positions stored without a heap allocation.
    pub const INLINE: usize = 2;

    /// An empty list (no allocation).
    #[must_use]
    pub fn new() -> Self {
        FailingBits::default()
    }

    /// An empty list with room for `capacity` positions: inline when it
    /// fits, pre-spilled otherwise so the pushes never re-copy.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FailingBits {
            inline: [0; FailingBits::INLINE],
            len: 0,
            spill: if capacity > FailingBits::INLINE {
                Vec::with_capacity(capacity)
            } else {
                Vec::new()
            },
        }
    }

    /// Appends a bit position, spilling to the heap past
    /// [`FailingBits::INLINE`] entries.
    pub fn push(&mut self, bit: usize) {
        if self.spill.is_empty() && (self.len as usize) < FailingBits::INLINE {
            self.inline[self.len as usize] = bit;
            self.len += 1;
            return;
        }
        if self.spill.is_empty() {
            // Inline storage is full: move it to the heap first.
            self.spill.reserve(FailingBits::INLINE + 1);
            self.spill.extend_from_slice(&self.inline);
            self.len = 0;
        }
        self.spill.push(bit);
    }

    /// Reverses the positions in place (serial diagnosis reports
    /// left-shifted responses MSB first).
    pub fn reverse(&mut self) {
        if self.spill.is_empty() {
            self.inline[..self.len as usize].reverse();
        } else {
            self.spill.reverse();
        }
    }

    fn as_slice(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for FailingBits {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl fmt::Debug for FailingBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for FailingBits {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FailingBits {}

impl PartialEq<Vec<usize>> for FailingBits {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FailingBits> for Vec<usize> {
    fn eq(&self, other: &FailingBits) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<usize>> for FailingBits {
    fn from(bits: Vec<usize>) -> Self {
        if bits.len() > FailingBits::INLINE {
            return FailingBits {
                inline: [0; FailingBits::INLINE],
                len: 0,
                spill: bits,
            };
        }
        let mut out = FailingBits::new();
        for &bit in &bits {
            out.push(bit);
        }
        out
    }
}

impl FromIterator<usize> for FailingBits {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut out = FailingBits::new();
        for bit in iter {
            out.push(bit);
        }
        out
    }
}

impl<'a> IntoIterator for &'a FailingBits {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_splat() {
        let z = DataWord::zero(100);
        assert_eq!(z.width(), 100);
        assert_eq!(z.count_ones(), 0);
        let o = DataWord::splat(true, 100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.inverted(), z);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = DataWord::zero(0);
    }

    #[test]
    fn set_and_get_across_limb_boundary() {
        let mut w = DataWord::zero(130);
        w.set(0, true);
        w.set(63, true);
        w.set(64, true);
        w.set(129, true);
        assert!(w.bit(0) && w.bit(63) && w.bit(64) && w.bit(129));
        assert!(!w.bit(1) && !w.bit(65) && !w.bit(128));
        assert_eq!(w.count_ones(), 4);
        w.set(64, false);
        assert!(!w.bit(64));
        assert_eq!(w.count_ones(), 3);
    }

    #[test]
    fn from_u64_round_trips() {
        let w = DataWord::from_u64(0b1011, 4);
        assert_eq!(w.as_u64(), Some(0b1011));
        assert_eq!(w.to_string(), "1011");
        let w = DataWord::from_u64(u64::MAX, 64);
        assert_eq!(w.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn try_bit_reports_out_of_range() {
        let w = DataWord::zero(4);
        assert_eq!(w.try_bit(3), Ok(false));
        assert_eq!(w.try_bit(4), Err(MemError::BitOutOfRange { bit: 4, width: 4 }));
    }

    #[test]
    fn checkerboard_alternates_within_row_and_between_rows() {
        let row0 = DataWord::checkerboard(4, 0, false);
        let row1 = DataWord::checkerboard(4, 1, false);
        assert_eq!(row0.to_string(), "0101"); // bit0=1, bit1=0, ...
        assert_eq!(row1.to_string(), "1010");
        assert_eq!(row0.inverted(), DataWord::checkerboard(4, 0, true));
        assert_eq!(row0, row1.inverted());
    }

    #[test]
    fn column_stripe_is_row_independent() {
        let s = DataWord::column_stripe(5, false);
        assert_eq!(s.to_string(), "10101");
        assert_eq!(DataWord::column_stripe(5, true), s.inverted());
    }

    #[test]
    fn row_stripe_alternates_by_row() {
        assert_eq!(DataWord::row_stripe(3, 0, false), DataWord::splat(true, 3));
        assert_eq!(DataWord::row_stripe(3, 1, false), DataWord::splat(false, 3));
        assert_eq!(DataWord::row_stripe(3, 1, true), DataWord::splat(true, 3));
    }

    #[test]
    fn mismatches_and_xor_agree() {
        let a = DataWord::from_u64(0b1100, 4);
        let b = DataWord::from_u64(0b1010, 4);
        assert_eq!(a.mismatches(&b), vec![1, 2]);
        assert_eq!(a.xor(&b).ones(), vec![1, 2]);
        assert!(a.mismatches(&a).is_empty());
    }

    #[test]
    fn msb_first_ordering_matches_paper_spc_discussion() {
        // DP[3:0] = 0b0111 delivered MSB first is [false, true, true, true].
        let dp = DataWord::from_u64(0b0111, 4);
        assert_eq!(dp.bits_msb_first(), vec![false, true, true, true]);
        assert_eq!(dp.bits_lsb_first(), vec![true, true, true, false]);
    }

    #[test]
    fn truncated_lsb_keeps_low_bits() {
        let dp = DataWord::from_u64(0b0111, 4);
        let narrow = dp.truncated_lsb(3);
        assert_eq!(narrow.width(), 3);
        assert_eq!(narrow.as_u64(), Some(0b111));
    }

    #[test]
    fn as_u64_rejects_wide_words_with_high_bits() {
        let mut wide = DataWord::zero(100);
        wide.set(80, true);
        assert_eq!(wide.as_u64(), None);
        let low = DataWord::zero(100);
        assert_eq!(low.as_u64(), Some(0));
    }

    #[test]
    fn from_iterator_collect() {
        let w: DataWord = vec![true, false, true].into_iter().collect();
        assert_eq!(w.width(), 3);
        assert_eq!(w.as_u64(), Some(0b101));
    }
}
