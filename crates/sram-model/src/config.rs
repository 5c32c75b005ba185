//! Memory configuration, addressing and identity newtypes.

use crate::error::MemError;
use std::fmt;

/// Identifier of one e-SRAM instance inside an SoC population.
///
/// The DATE 2005 scheme diagnoses many distributed e-SRAMs in parallel
/// with one shared controller; [`MemoryId`] is how the controller, the
/// comparator array and diagnosis logs refer to a specific instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemoryId(pub u32);

impl MemoryId {
    /// Creates a memory identifier from a raw index.
    pub fn new(index: u32) -> Self {
        MemoryId(index)
    }

    /// Returns the raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for MemoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem{}", self.0)
    }
}

impl From<u32> for MemoryId {
    fn from(value: u32) -> Self {
        MemoryId(value)
    }
}

/// Word address within a single e-SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u64);

impl Address {
    /// Creates an address from a raw word index.
    pub fn new(index: u64) -> Self {
        Address(index)
    }

    /// Returns the raw word index.
    #[inline]
    pub fn index(self) -> u64 {
        self.0
    }

    /// Returns the address that follows this one, wrapping at `words`.
    ///
    /// Smaller memories sharing an address trigger with a larger memory
    /// wrap around when the trigger exceeds their own capacity
    /// (Sec. 3.1 of the paper); this helper implements that wrap.
    pub fn wrapping_next(self, words: u64) -> Self {
        debug_assert!(words > 0);
        Address((self.0 + 1) % words)
    }

    /// Maps a (possibly larger) global address onto this memory's space.
    pub fn wrapped(self, words: u64) -> Self {
        debug_assert!(words > 0);
        Address(self.0 % words)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(value: u64) -> Self {
        Address(value)
    }
}

/// Geometry of one e-SRAM: number of words and IO width in bits.
///
/// The paper's benchmark memory (from \[16\]) has `n = 512` words and
/// `c = 100` IO bits; [`MemConfig::date2005_benchmark`] constructs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    words: u64,
    width: usize,
}

impl MemConfig {
    /// Widest supported IO width in bits.
    ///
    /// The packed bit-plane kernels keep one word per memory inline in
    /// two 64-bit limbs; widths past that bound would silently truncate
    /// data downstream, so construction rejects them up front.
    pub const MAX_WIDTH: usize = 128;

    /// Creates a memory configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] if `words` or `width` is
    /// zero, or if `width` exceeds [`MemConfig::MAX_WIDTH`].
    pub fn new(words: u64, width: usize) -> Result<Self, MemError> {
        if words == 0 || width == 0 || width > Self::MAX_WIDTH {
            return Err(MemError::InvalidConfig { words, width });
        }
        Ok(MemConfig { words, width })
    }

    /// The benchmark e-SRAM of the paper's case study: 512 words x 100 bits.
    pub fn date2005_benchmark() -> Self {
        MemConfig {
            words: 512,
            width: 100,
        }
    }

    /// Number of words.
    #[inline]
    pub fn words(&self) -> u64 {
        self.words
    }

    /// IO width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of bit cells (`words * width`).
    pub fn cells(&self) -> u64 {
        self.words * self.width as u64
    }

    /// Returns `true` if `address` is inside this memory.
    #[inline]
    pub fn contains(&self, address: Address) -> bool {
        address.0 < self.words
    }

    /// Validates an address against this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] if the address is outside
    /// the memory.
    #[inline]
    pub fn check_address(&self, address: Address) -> Result<(), MemError> {
        if self.contains(address) {
            Ok(())
        } else {
            Err(MemError::AddressOutOfRange {
                address: address.0,
                words: self.words,
            })
        }
    }

    /// Validates a data width against this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] if `width` differs from the
    /// memory IO width.
    #[inline]
    pub fn check_width(&self, width: usize) -> Result<(), MemError> {
        if width == self.width {
            Ok(())
        } else {
            Err(MemError::WidthMismatch {
                supplied: width,
                expected: self.width,
            })
        }
    }

    /// Iterator over every word address in ascending order.
    pub fn addresses(&self) -> impl Iterator<Item = Address> {
        (0..self.words).map(Address)
    }
}

impl fmt::Display for MemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.words, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_words_and_zero_width() {
        assert!(matches!(
            MemConfig::new(0, 8),
            Err(MemError::InvalidConfig { .. })
        ));
        assert!(matches!(
            MemConfig::new(16, 0),
            Err(MemError::InvalidConfig { .. })
        ));
        assert!(MemConfig::new(1, 1).is_ok());
    }

    #[test]
    fn new_rejects_widths_past_the_inline_limb_bound() {
        assert_eq!(
            MemConfig::new(16, MemConfig::MAX_WIDTH + 1),
            Err(MemError::InvalidConfig {
                words: 16,
                width: 129
            })
        );
        assert!(MemConfig::new(16, MemConfig::MAX_WIDTH).is_ok());
        // The paper's benchmark geometry stays comfortably inside.
        assert!(MemConfig::date2005_benchmark().width() <= MemConfig::MAX_WIDTH);
    }

    #[test]
    fn benchmark_matches_paper_case_study() {
        let c = MemConfig::date2005_benchmark();
        assert_eq!(c.words(), 512);
        assert_eq!(c.width(), 100);
        assert_eq!(c.cells(), 51_200);
    }

    #[test]
    fn contains_and_check_address() {
        let c = MemConfig::new(8, 4).unwrap();
        assert!(c.contains(Address::new(0)));
        assert!(c.contains(Address::new(7)));
        assert!(!c.contains(Address::new(8)));
        assert!(c.check_address(Address::new(7)).is_ok());
        assert_eq!(
            c.check_address(Address::new(8)),
            Err(MemError::AddressOutOfRange { address: 8, words: 8 })
        );
    }

    #[test]
    fn check_width_accepts_only_exact_width() {
        let c = MemConfig::new(8, 4).unwrap();
        assert!(c.check_width(4).is_ok());
        assert_eq!(
            c.check_width(5),
            Err(MemError::WidthMismatch {
                supplied: 5,
                expected: 4
            })
        );
    }

    #[test]
    fn address_wrapping_matches_smaller_memory_semantics() {
        // A 4-word memory driven by a controller counting to 8 sees each
        // of its addresses twice.
        let seen: Vec<u64> = (0..8u64).map(|a| Address::new(a).wrapped(4).index()).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(Address::new(3).wrapping_next(4), Address::new(0));
        assert_eq!(Address::new(2).wrapping_next(4), Address::new(3));
    }

    #[test]
    fn address_iterators_cover_full_space_in_order() {
        let c = MemConfig::new(4, 2).unwrap();
        let up: Vec<u64> = c.addresses().map(Address::index).collect();
        assert_eq!(up, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemoryId::new(3).to_string(), "mem3");
        assert_eq!(Address::new(255).to_string(), "@0xff");
        assert_eq!(MemConfig::new(512, 100).unwrap().to_string(), "512x100");
    }
}
