//! Data backgrounds for word-oriented March tests.
//!
//! A bit-oriented March algorithm such as March C− detects inter-word
//! faults but not all intra-word (within one word) coupling faults.
//! March CW \[13\] therefore repeats a short element under multiple *data
//! backgrounds*; the classical choice is the ⌈log2 c⌉ "binary"
//! backgrounds in which background `j` sets bit `i` to bit `j` of the
//! binary representation of `i`, so that every pair of bits within a
//! word is driven to opposite values by at least one background.

use sram_model::DataWord;
use std::fmt;

/// A data background: a rule assigning a pattern to every (row, width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum DataBackground {
    /// All-zero background (the inverse pattern is all ones).
    #[default]
    Solid,
    /// Checkerboard: alternating bits, phase alternating per row.
    Checkerboard,
    /// Column stripe: alternating bits, identical in every row.
    ColumnStripe,
    /// Row stripe: all-zero and all-one rows alternating.
    RowStripe,
    /// Binary background `j`: bit `i` of the pattern is bit `j` of `i`.
    ///
    /// The set `Binary(0) .. Binary(⌈log2 c⌉ - 1)` is the background set
    /// March CW uses to cover intra-word coupling and column-decoder
    /// faults.
    Binary(u32),
}

impl DataBackground {
    /// The background pattern for a word of `width` bits at `row`.
    ///
    /// March operations written with logical value `0` write this
    /// pattern; operations with logical value `1` write its inverse.
    pub fn pattern(&self, width: usize, row: u64) -> DataWord {
        match self {
            DataBackground::Solid => DataWord::zero(width),
            DataBackground::Checkerboard => DataWord::checkerboard(width, row, false),
            DataBackground::ColumnStripe => DataWord::column_stripe(width, false),
            DataBackground::RowStripe => DataWord::row_stripe(width, row, true),
            DataBackground::Binary(j) => {
                let mut word = DataWord::zero(width);
                for bit in 0..width {
                    word.set(bit, (bit >> j) & 1 == 1);
                }
                word
            }
        }
    }

    /// The pattern associated with a March operation of logical value
    /// `value` (`false` = background, `true` = inverted background).
    pub fn pattern_for(&self, value: bool, width: usize, row: u64) -> DataWord {
        let base = self.pattern(width, row);
        if value {
            base.inverted()
        } else {
            base
        }
    }

    /// The ⌈log2 c⌉ binary backgrounds March CW uses for a word width of
    /// `width` bits (at least one background, even for 1-bit words).
    pub fn march_cw_set(width: usize) -> Vec<DataBackground> {
        let count = log2_ceil(width).max(1);
        (0..count).map(DataBackground::Binary).collect()
    }

    /// Precomputes the patterns this background can produce for a
    /// given width, so hot simulation loops can borrow them instead of
    /// rebuilding a [`DataWord`] bit by bit on every operation.
    ///
    /// Every background modelled by this crate repeats every
    /// [`BackgroundPatterns::ROW_PERIOD`] rows (checkerboard and
    /// row-stripe alternate per row; solid, column-stripe and binary
    /// backgrounds are row-independent), so `(value, row phase)` fully
    /// indexes the pattern. A background with a longer period must
    /// raise that constant.
    pub fn patterns(&self, width: usize) -> BackgroundPatterns {
        let row_patterns = |value| std::array::from_fn(|phase| self.pattern_for(value, width, phase as u64));
        BackgroundPatterns {
            patterns: [row_patterns(false), row_patterns(true)],
        }
    }
}

/// The patterns of one [`DataBackground`] at one width, precomputed per
/// logical value and row phase (see [`DataBackground::patterns`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackgroundPatterns {
    /// `patterns[value][row phase]`.
    patterns: [[DataWord; BackgroundPatterns::ROW_PERIOD as usize]; 2],
}

impl BackgroundPatterns {
    /// Rows whose indices agree modulo this period receive the same
    /// pattern from every [`DataBackground`]. On a fault-free memory such
    /// rows therefore see identical reads and writes under any March
    /// schedule, which is what lets the fault simulator run its golden
    /// check on one period of rows and merge single-cell faults that
    /// differ only in their row's index beyond its phase.
    pub const ROW_PERIOD: u64 = 2;

    /// The phase of `row` within [`BackgroundPatterns::ROW_PERIOD`]: the
    /// only thing about a row its patterns depend on.
    pub fn row_phase(row: u64) -> usize {
        (row % Self::ROW_PERIOD) as usize
    }

    /// The pattern a March operation of logical value `value` uses at
    /// `row` (borrow — no allocation).
    pub fn word(&self, value: bool, row: u64) -> &DataWord {
        &self.patterns[usize::from(value)][Self::row_phase(row)]
    }
}

impl fmt::Display for DataBackground {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataBackground::Solid => write!(f, "solid"),
            DataBackground::Checkerboard => write!(f, "checkerboard"),
            DataBackground::ColumnStripe => write!(f, "column-stripe"),
            DataBackground::RowStripe => write!(f, "row-stripe"),
            DataBackground::Binary(j) => write!(f, "binary{j}"),
        }
    }
}

/// ⌈log2(x)⌉ for x ≥ 1 (returns 0 for x = 1).
pub fn log2_ceil(x: usize) -> u32 {
    assert!(x >= 1, "log2_ceil requires a positive argument");
    if x == 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(100), 7); // the paper's benchmark width
        assert_eq!(log2_ceil(128), 7);
        assert_eq!(log2_ceil(129), 8);
    }

    #[test]
    fn solid_background_and_inverse() {
        let bg = DataBackground::Solid;
        assert_eq!(bg.pattern(4, 0), DataWord::zero(4));
        assert_eq!(bg.pattern_for(true, 4, 3), DataWord::splat(true, 4));
    }

    #[test]
    fn checkerboard_background_alternates_by_row() {
        let bg = DataBackground::Checkerboard;
        assert_ne!(bg.pattern(4, 0), bg.pattern(4, 1));
        assert_eq!(bg.pattern(4, 0), bg.pattern(4, 2));
        assert_eq!(bg.pattern(4, 0), bg.pattern(4, 1).inverted());
    }

    #[test]
    fn column_stripe_is_row_invariant() {
        let bg = DataBackground::ColumnStripe;
        assert_eq!(bg.pattern(6, 0), bg.pattern(6, 5));
        assert_eq!(bg.pattern(6, 0).to_string(), "010101");
    }

    #[test]
    fn row_stripe_alternates_whole_words() {
        let bg = DataBackground::RowStripe;
        assert_eq!(bg.pattern(3, 0), DataWord::zero(3));
        assert_eq!(bg.pattern(3, 1), DataWord::splat(true, 3));
    }

    #[test]
    fn binary_backgrounds_distinguish_every_bit_pair() {
        let width = 10;
        let set = DataBackground::march_cw_set(width);
        assert_eq!(set.len(), 4); // ceil(log2 10)
        for i in 0..width {
            for j in (i + 1)..width {
                let distinguished = set.iter().any(|bg| {
                    let p = bg.pattern(width, 0);
                    p.bit(i) != p.bit(j)
                });
                assert!(distinguished, "bits {i} and {j} never driven to opposite values");
            }
        }
    }

    #[test]
    fn march_cw_set_for_one_bit_word_is_non_empty() {
        assert_eq!(DataBackground::march_cw_set(1).len(), 1);
    }

    #[test]
    fn benchmark_width_needs_seven_backgrounds() {
        // c = 100 -> ceil(log2 100) = 7, the factor in Eq. (2).
        assert_eq!(DataBackground::march_cw_set(100).len(), 7);
    }

    #[test]
    fn precomputed_patterns_agree_with_pattern_for_on_every_background() {
        let backgrounds = [
            DataBackground::Solid,
            DataBackground::Checkerboard,
            DataBackground::ColumnStripe,
            DataBackground::RowStripe,
            DataBackground::Binary(0),
            DataBackground::Binary(2),
        ];
        for background in backgrounds {
            for width in [1usize, 4, 65, 100] {
                let cache = background.patterns(width);
                for row in 0..6u64 {
                    for value in [false, true] {
                        assert_eq!(
                            cache.word(value, row),
                            &background.pattern_for(value, width, row),
                            "{background} width {width} row {row} value {value}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DataBackground::Solid.to_string(), "solid");
        assert_eq!(DataBackground::Binary(3).to_string(), "binary3");
        assert_eq!(DataBackground::default(), DataBackground::Solid);
    }
}
