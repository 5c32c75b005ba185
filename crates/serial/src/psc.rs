//! Parallel-to-Serial Converter (PSC), Fig. 5 of the paper.

use sram_model::DataWord;

/// A parallel-to-serial converter local to one e-SRAM.
///
/// The PSC is a chain of *scan* D flip-flops: when `scan_en` is low a
/// clock edge captures the memory's read data in parallel; when
/// `scan_en` is high each clock edge shifts the captured response one
/// position towards the serial output (LSB first), feeding `0` in at the
/// tail. Because the shift path never passes through the memory cells,
/// shifting cannot be corrupted by memory faults and no fault can mask
/// another — the property the bi-directional interface of \[7,8\] lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelToSerialConverter {
    width: usize,
    register: Vec<bool>,
}

impl ParallelToSerialConverter {
    /// Creates a PSC for a memory with `width` IO bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "psc width must be non-zero");
        ParallelToSerialConverter {
            width,
            register: vec![false; width],
        }
    }

    /// Width of the converter (the memory's IO width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Captures the memory response in parallel (one clock cycle with
    /// `scan_en` low).
    ///
    /// # Panics
    ///
    /// Panics if the response width does not match the converter width.
    pub fn capture(&mut self, response: &DataWord) {
        assert_eq!(response.width(), self.width, "psc capture width mismatch");
        for bit in 0..self.width {
            self.register[bit] = response.bit(bit);
        }
    }

    /// Shifts one bit out towards the BISD controller (one clock cycle
    /// with `scan_en` high); the LSB leaves first and a `0` enters at
    /// the MSB end.
    pub fn shift_out(&mut self) -> bool {
        let out = self.register[0];
        for bit in 0..self.width - 1 {
            self.register[bit] = self.register[bit + 1];
        }
        self.register[self.width - 1] = false;
        out
    }

    /// Captures a response and serialises it completely, returning the
    /// bits in the order they reach the controller (LSB first) along
    /// with the cycle cost (`1 + width`).
    pub fn serialize(&mut self, response: &DataWord) -> (Vec<bool>, u64) {
        self.capture(response);
        let bits: Vec<bool> = (0..self.width).map(|_| self.shift_out()).collect();
        (bits, 1 + self.width as u64)
    }

    /// Reconstructs the word a full serialisation produced (helper for
    /// the controller-side comparator).
    pub fn word_from_serial(bits: &[bool]) -> DataWord {
        DataWord::from_bits_lsb_first(bits.iter().copied())
    }

    /// Captures a response, serialises it completely and reassembles the
    /// word as the controller receives it, returning `(word, cycles)`.
    ///
    /// Behaviourally identical to [`ParallelToSerialConverter::serialize`]
    /// followed by [`ParallelToSerialConverter::word_from_serial`], but
    /// without materialising the intermediate bit vector — the shifted
    /// bits feed the word builder directly. This keeps the per-read
    /// serialisation of a large diagnosis population allocation-free
    /// (one `DataWord`, no `Vec<bool>`).
    pub fn serialize_word(&mut self, response: &DataWord) -> (DataWord, u64) {
        self.capture(response);
        let width = self.width;
        let word = DataWord::from_bits_lsb_first((0..width).map(|_| self.shift_out()));
        (word, 1 + width as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_then_shift_returns_lsb_first() {
        let mut psc = ParallelToSerialConverter::new(4);
        psc.capture(&DataWord::from_u64(0b1010, 4));
        let bits: Vec<bool> = (0..4).map(|_| psc.shift_out()).collect();
        assert_eq!(bits, vec![false, true, false, true]);
    }

    #[test]
    fn serialize_word_agrees_with_serialize_plus_reassembly() {
        for width in [1usize, 4, 63, 64, 65, 100] {
            let mut via_bits = ParallelToSerialConverter::new(width);
            let mut direct = ParallelToSerialConverter::new(width);
            let mut response = DataWord::zero(width);
            for bit in (0..width).step_by(3) {
                response.set(bit, true);
            }
            let (bits, bit_cycles) = via_bits.serialize(&response);
            let (word, word_cycles) = direct.serialize_word(&response);
            assert_eq!(word, ParallelToSerialConverter::word_from_serial(&bits));
            assert_eq!(word_cycles, bit_cycles);
        }
    }

    #[test]
    fn serialize_round_trips_through_word_from_serial() {
        let mut psc = ParallelToSerialConverter::new(7);
        let response = DataWord::from_u64(0b1011001, 7);
        let (bits, cycles) = psc.serialize(&response);
        assert_eq!(cycles, 8);
        assert_eq!(ParallelToSerialConverter::word_from_serial(&bits), response);
    }

    #[test]
    fn shifting_beyond_width_returns_the_zero_fill() {
        let mut psc = ParallelToSerialConverter::new(2);
        psc.capture(&DataWord::splat(true, 2));
        assert!(psc.shift_out());
        assert!(psc.shift_out());
        assert!(!psc.shift_out()); // zero fill after the captured bits left
    }

    #[test]
    fn recapture_overwrites_partially_shifted_state() {
        let mut psc = ParallelToSerialConverter::new(3);
        psc.capture(&DataWord::splat(true, 3));
        psc.shift_out();
        psc.capture(&DataWord::zero(3));
        let (bits, _) = {
            let bits: Vec<bool> = (0..3).map(|_| psc.shift_out()).collect();
            (bits, ())
        };
        assert_eq!(bits, vec![false, false, false]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn capture_rejects_wrong_width() {
        let mut psc = ParallelToSerialConverter::new(3);
        psc.capture(&DataWord::zero(4));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = ParallelToSerialConverter::new(0);
    }
}
