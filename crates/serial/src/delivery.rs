//! Shared serial pattern-delivery bus from the Data Background Generator
//! to every SPC.

use crate::spc::{SerialToParallelConverter, ShiftOrder};
use sram_model::DataWord;

/// The single serial line that broadcasts each test pattern from the
/// shared Data Background Generator to the SPCs of every e-SRAM under
/// diagnosis.
///
/// The generator always emits the pattern of the *widest* memory
/// (`c_max` bits); every SPC listens to the same line and keeps the last
/// bits it saw, so one broadcast of `c_max` cycles serves all memories
/// simultaneously (Sec. 3.1–3.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternDeliveryBus {
    widest: usize,
    order: ShiftOrder,
    spcs: Vec<SerialToParallelConverter>,
}

impl PatternDeliveryBus {
    /// Creates a bus for memories with the given IO widths, using the
    /// paper's MSB-first delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or contains a zero width.
    pub fn new(widths: &[usize]) -> Self {
        PatternDeliveryBus::with_order(widths, ShiftOrder::MsbFirst)
    }

    /// Creates a bus with an explicit delivery order (the LSB-first
    /// variant exists for the ablation study of Sec. 3.2).
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or contains a zero width.
    pub fn with_order(widths: &[usize], order: ShiftOrder) -> Self {
        assert!(
            !widths.is_empty(),
            "pattern delivery bus needs at least one memory"
        );
        let widest = *widths.iter().max().expect("non-empty widths");
        let spcs = widths
            .iter()
            .map(|&w| SerialToParallelConverter::new(w))
            .collect();
        PatternDeliveryBus { widest, order, spcs }
    }

    /// Broadcasts one pattern (of the widest memory's width) to every
    /// SPC and returns the number of clock cycles used (`c_max`).
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the widest memory width.
    pub fn broadcast(&mut self, pattern: &DataWord) -> u64 {
        assert_eq!(
            pattern.width(),
            self.widest,
            "broadcast pattern must use the widest width"
        );
        let bits = match self.order {
            ShiftOrder::MsbFirst => pattern.bits_msb_first(),
            ShiftOrder::LsbFirst => pattern.bits_lsb_first(),
        };
        for bit in &bits {
            for spc in &mut self.spcs {
                spc.shift_in(*bit);
            }
        }
        bits.len() as u64
    }

    /// The word currently presented to memory `index` by its SPC.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn pattern_at(&self, index: usize) -> DataWord {
        self.spcs[index].parallel_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_serves_every_width_in_one_pass_msb_first() {
        let mut bus = PatternDeliveryBus::new(&[4, 3, 2]);
        let pattern = DataWord::from_u64(0b0111, 4);
        let cycles = bus.broadcast(&pattern);
        assert_eq!(cycles, 4);
        assert_eq!(bus.pattern_at(0), pattern);
        assert_eq!(bus.pattern_at(1), pattern.truncated_lsb(3));
        assert_eq!(bus.pattern_at(2), pattern.truncated_lsb(2));
    }

    #[test]
    fn lsb_first_order_corrupts_narrow_memories() {
        let mut bus = PatternDeliveryBus::with_order(&[4, 3], ShiftOrder::LsbFirst);
        let pattern = DataWord::from_u64(0b0111, 4);
        bus.broadcast(&pattern);
        assert_ne!(bus.pattern_at(1), pattern.truncated_lsb(3));
    }

    #[test]
    fn successive_broadcasts_replace_patterns_everywhere() {
        let mut bus = PatternDeliveryBus::new(&[4, 2]);
        bus.broadcast(&DataWord::splat(true, 4));
        bus.broadcast(&DataWord::zero(4));
        assert_eq!(bus.pattern_at(0), DataWord::zero(4));
        assert_eq!(bus.pattern_at(1), DataWord::zero(2));
    }

    #[test]
    #[should_panic(expected = "widest width")]
    fn broadcast_rejects_wrong_pattern_width() {
        let mut bus = PatternDeliveryBus::new(&[4, 2]);
        bus.broadcast(&DataWord::zero(3));
    }

    #[test]
    #[should_panic(expected = "at least one memory")]
    fn empty_bus_panics() {
        let _ = PatternDeliveryBus::new(&[]);
    }

    #[test]
    fn benchmark_width_broadcast_costs_c_max_cycles() {
        let mut bus = PatternDeliveryBus::new(&[100, 32, 8]);
        let cycles = bus.broadcast(&DataWord::checkerboard(100, 0, false));
        assert_eq!(cycles, 100);
    }
}
