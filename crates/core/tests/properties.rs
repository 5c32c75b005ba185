//! Property-based tests on the core data structures and invariants.

use esram_diag::MemoryUnderDiagnosis;
use esram_diag::{
    algorithms, Address, AnalyticModel, DataBackground, DataWord, DiagnosisScheme, FastScheme, MemConfig,
    MemoryFault, MemoryId,
};
use march::{FaultSimulator, MarchRunner, MarchSchedule};
use proptest::prelude::*;
use serial::{ParallelToSerialConverter, SerialToParallelConverter, ShiftOrder};
use sram_model::cell::CellCoord;
use sram_model::Sram;

fn arb_word(width: usize) -> impl Strategy<Value = DataWord> {
    proptest::collection::vec(any::<bool>(), width).prop_map(DataWord::from_bits_lsb_first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A word survives a round trip through bit decomposition in either
    /// order.
    #[test]
    fn dataword_bit_round_trip(width in 1usize..130, seed in any::<u64>()) {
        let mut word = DataWord::zero(width);
        for bit in 0..width {
            word.set(bit, (seed >> (bit % 64)) & 1 == 1);
        }
        let lsb = DataWord::from_bits_lsb_first(word.bits_lsb_first());
        prop_assert_eq!(&lsb, &word);
        let msb_bits = word.bits_msb_first();
        let back = DataWord::from_bits_lsb_first(msb_bits.iter().rev().copied());
        prop_assert_eq!(&back, &word);
        prop_assert_eq!(word.inverted().inverted(), word);
    }

    /// Mismatch positions are symmetric and consistent with XOR.
    #[test]
    fn dataword_mismatches_match_xor(width in 1usize..100, a_seed in any::<u64>(), b_seed in any::<u64>()) {
        let make = |seed: u64| {
            let mut w = DataWord::zero(width);
            for bit in 0..width {
                w.set(bit, (seed >> (bit % 64)) & 1 == 1);
            }
            w
        };
        let a = make(a_seed);
        let b = make(b_seed);
        prop_assert_eq!(a.mismatches(&b), b.mismatches(&a));
        prop_assert_eq!(a.mismatches(&b), a.xor(&b).ones());
    }

    /// MSB-first delivery through an SPC always leaves a narrower memory
    /// with the low-order bits of the wide pattern (Sec. 3.2).
    #[test]
    fn spc_msb_first_preserves_low_bits(
        wide_width in 2usize..64,
        narrow_fraction in 1usize..64,
        seed in any::<u64>(),
    ) {
        let narrow_width = (narrow_fraction % wide_width).max(1);
        let pattern = DataWord::from_u64(seed & ((1u64 << wide_width.min(63)) - 1), wide_width);
        let mut spc = SerialToParallelConverter::new(narrow_width);
        spc.deliver(&pattern, ShiftOrder::MsbFirst);
        prop_assert_eq!(spc.parallel_out(), pattern.truncated_lsb(narrow_width));
    }

    /// A PSC serialisation always reconstructs the captured response.
    #[test]
    fn psc_serialisation_round_trips(word in arb_word(33)) {
        let mut psc = ParallelToSerialConverter::new(33);
        let (bits, cycles) = psc.serialize(&word);
        prop_assert_eq!(cycles, 34);
        prop_assert_eq!(ParallelToSerialConverter::word_from_serial(&bits), word);
    }

    /// A fault-free memory passes any of the library March tests under
    /// any background, and the operation count matches the notation.
    #[test]
    fn fault_free_memory_passes_every_march_test(
        words in 1u64..32,
        width in 1usize..12,
        which in 0usize..3,
        background_index in 0usize..4,
    ) {
        let config = MemConfig::new(words, width).unwrap();
        let mut sram = Sram::new(config);
        let test = match which {
            0 => algorithms::mats_plus(),
            1 => algorithms::march_c_minus(),
            _ => algorithms::with_nwrtm(&algorithms::march_c_minus()),
        };
        let background = match background_index {
            0 => DataBackground::Solid,
            1 => DataBackground::Checkerboard,
            2 => DataBackground::ColumnStripe,
            _ => DataBackground::Binary(1),
        };
        let outcome = MarchRunner::new().run_test(&mut sram, &test, background).unwrap();
        prop_assert!(outcome.passed());
    }

    /// Any single stuck-at fault anywhere is detected *and located* by
    /// March C−, and by the full proposed scheme end to end.
    #[test]
    fn any_stuck_at_fault_is_located(
        words in 2u64..24,
        width in 1usize..10,
        address_seed in any::<u64>(),
        bit_seed in any::<usize>(),
        value in any::<bool>(),
    ) {
        let config = MemConfig::new(words, width).unwrap();
        let coord = CellCoord::new(Address::new(address_seed % words), bit_seed % width);
        let fault = if value {
            MemoryFault::stuck_at_1(coord)
        } else {
            MemoryFault::stuck_at_0(coord)
        };

        // March-level simulation.
        let sim = FaultSimulator::new(config);
        let schedule = MarchSchedule::single(algorithms::march_c_minus(), DataBackground::Solid);
        let outcome = sim.simulate_fault_schedule(&schedule, &fault);
        prop_assert!(outcome.detected);
        prop_assert!(outcome.located);

        // Full-scheme simulation.
        let mut memories = vec![MemoryUnderDiagnosis::with_faults(
            MemoryId::new(0),
            config,
            std::iter::once(fault).collect(),
        )
        .unwrap()];
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        let located = result.sites(MemoryId::new(0));
        prop_assert!(located.iter().any(|s| s.address == coord.address && s.bit == coord.bit));
    }

    /// The analytic reduction factor is monotone in the iteration count
    /// and always favours the proposed scheme for k >= 1.
    #[test]
    fn analytic_reduction_is_monotone_and_above_one(
        words in 16u64..2048,
        width in 4u64..128,
        k in 1u64..512,
    ) {
        let model = AnalyticModel::new(words, width, 10.0);
        prop_assert!(model.reduction_without_drf(k + 1) > model.reduction_without_drf(k));
        // Baseline serialises every operation by the width, so even a
        // single iteration is slower than the proposed scheme for any
        // geometry in this range.
        prop_assert!(model.baseline_cycles(k) > 0);
        prop_assert!(model.proposed_cycles() > 0);
        prop_assert!(model.reduction_with_drf(k, 200.0) > model.reduction_without_drf(k) * 0.9);
    }

    /// NWRTM never pauses and never loses classical coverage: any single
    /// transition fault is still located when the NWRC elements are
    /// merged in.
    #[test]
    fn nwrtm_merge_keeps_transition_fault_location(
        words in 2u64..16,
        width in 1usize..8,
        address_seed in any::<u64>(),
        bit_seed in any::<usize>(),
        up in any::<bool>(),
    ) {
        let config = MemConfig::new(words, width).unwrap();
        let coord = CellCoord::new(Address::new(address_seed % words), bit_seed % width);
        let fault = if up {
            MemoryFault::transition_up(coord)
        } else {
            MemoryFault::transition_down(coord)
        };
        let schedule = MarchSchedule::single(
            algorithms::with_nwrtm(&algorithms::march_c_minus()),
            DataBackground::Solid,
        );
        let outcome = FaultSimulator::new(config).simulate_fault_schedule(&schedule, &fault);
        prop_assert!(outcome.detected);
        prop_assert!(outcome.located);
        prop_assert_eq!(schedule.pause_ms(), 0);
    }
}
