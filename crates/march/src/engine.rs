//! Word-oriented March execution engine.
//!
//! The engine applies a [`MarchTest`] (or a multi-background
//! [`MarchSchedule`]) to one behavioural memory and records every read
//! mismatch as a [`FailureRecord`]. It is the
//! functional reference the BISD schemes are checked against: whatever
//! fault information a scheme extracts through its serial access fabric
//! must agree with what a direct word-wide run observes.

use crate::background::{BackgroundPatterns, DataBackground};
use crate::ops::{MarchOp, MarchTest};
use crate::schedule::{MarchSchedule, SchedulePatterns};
use sram_model::cell::CellCoord;
use sram_model::{Address, FailingBits, MemError, MemoryPort};

/// One observed read mismatch.
///
/// The record keeps only what the schedule cannot rebuild. Given the
/// [`MarchSchedule`] that produced it, the data background is
/// `schedule.phases()[phase].background`; the expected word is that
/// phase's pattern ([`SchedulePatterns::phase`]) for the value `v` of
/// the read `MarchOp::Read(v)` at `elements()[element].ops[op]`, at
/// `address`; and the observed word is the expected word with every
/// bit of `failing_bits` flipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Index of the schedule phase (0 for single-test runs).
    pub phase: usize,
    /// Index of the March element within its test.
    pub element: usize,
    /// Index of the operation within its element.
    pub op: usize,
    /// Address at which the mismatch was observed.
    pub address: Address,
    /// Bit positions that mismatch, ascending.
    pub failing_bits: FailingBits,
}

/// Result of running a March test or schedule. The operation count and
/// the retention-pause time are not recorded here: they depend only on
/// the programme and are given in closed form by
/// [`MarchSchedule::operation_count`] and [`MarchSchedule::pause_ms`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Every read mismatch, in detection order.
    pub failures: Vec<FailureRecord>,
}

impl RunOutcome {
    /// True if no mismatch was observed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Distinct failing `(address, bit)` cells, ascending.
    pub fn sites(&self) -> Vec<CellCoord> {
        // Reads fail the same cells again and again (a decoder fault
        // fails whole words), so each address's bits are marked in a
        // mask rather than every `(address, bit)` pair being sorted.
        let mut failures: Vec<&FailureRecord> = self.failures.iter().collect();
        failures.sort_by_key(|failure| failure.address);
        let mut sites = Vec::new();
        let mut failing: Vec<bool> = Vec::new();
        for group in failures.chunk_by(|a, b| a.address == b.address) {
            failing.clear();
            for &bit in group.iter().flat_map(|failure| failure.failing_bits.iter()) {
                if bit >= failing.len() {
                    failing.resize(bit + 1, false);
                }
                failing[bit] = true;
            }
            let address = group[0].address;
            sites.extend(
                (0..failing.len())
                    .filter(|&bit| failing[bit])
                    .map(|bit| CellCoord::new(address, bit)),
            );
        }
        sites
    }
}

/// Executes March tests against a behavioural memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct MarchRunner {
    _private: (),
}

impl MarchRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        MarchRunner { _private: () }
    }

    /// Runs a single March test under one data background.
    ///
    /// Retention pauses inside an element are applied once per element
    /// (before its address sweep), matching the classical `del` notation.
    ///
    /// The memory may be any [`MemoryPort`] — the packed `Sram` or the
    /// dense reference model — which is how the dense-vs-overlay
    /// equivalence tests drive both with identical programmes.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors, which cannot occur when
    /// the test is run against a memory of the geometry it was built for.
    pub fn run_test<M: MemoryPort>(
        &self,
        sram: &mut M,
        test: &MarchTest,
        background: DataBackground,
    ) -> Result<RunOutcome, MemError> {
        // Patterns depend only on (value, row parity); precompute them
        // once so the per-operation loop is allocation-free.
        let patterns = background.patterns(sram.config().width());
        let mut failures = Vec::new();
        self.run_test_phase(sram, test, 0, &patterns, None, &mut failures)?;
        Ok(RunOutcome { failures })
    }

    /// Runs a multi-background schedule phase by phase.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_schedule<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
    ) -> Result<RunOutcome, MemError> {
        let patterns = SchedulePatterns::new(schedule, sram.config().width());
        self.run_schedule_with(sram, schedule, &patterns)
    }

    /// Runs a schedule with pattern words precomputed by the caller
    /// (see [`SchedulePatterns`]) — the batched entry point: one
    /// pattern build serves a whole fault universe.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_schedule_with<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
        patterns: &SchedulePatterns,
    ) -> Result<RunOutcome, MemError> {
        self.run_schedule_inner(sram, schedule, patterns, None)
    }

    /// Runs a schedule visiting only `rows` (ascending-sorted, distinct)
    /// in every element sweep, *order-preserving*: ascending elements
    /// visit the rows in ascending order, descending elements in
    /// descending order, so the visited rows experience the identical
    /// relative operation sequence they would in a whole-memory sweep.
    /// Element structure, phase order and retention pauses are executed
    /// exactly as in a full run.
    ///
    /// This is the engine half of the simulator's fault-locality
    /// pruning: a fault confined to one row, or a coupling fault's
    /// victim and aggressor rows, is observed on a memory whose
    /// fault-free run passes exactly as in the full run. The operation
    /// count of the whole memory's run is still the closed form
    /// [`MarchSchedule::operation_count`]; the restricted sweep performs
    /// only the visited rows' share of it.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_schedule_rows<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
        patterns: &SchedulePatterns,
        rows: &[Address],
    ) -> Result<RunOutcome, MemError> {
        debug_assert!(
            rows.windows(2).all(|pair| pair[0] < pair[1]),
            "restricted rows must be ascending and distinct"
        );
        self.run_schedule_inner(sram, schedule, patterns, Some(rows))
    }

    fn run_schedule_inner<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
        patterns: &SchedulePatterns,
        restrict: Option<&[Address]>,
    ) -> Result<RunOutcome, MemError> {
        let mut failures = Vec::new();
        for (phase_index, phase) in schedule.phases().iter().enumerate() {
            self.run_test_phase(
                sram,
                &phase.test,
                phase_index,
                patterns.phase(phase_index),
                restrict,
                &mut failures,
            )?;
        }
        Ok(RunOutcome { failures })
    }

    /// Runs one phase, appending its mismatches to `failures`.
    fn run_test_phase<M: MemoryPort>(
        &self,
        sram: &mut M,
        test: &MarchTest,
        phase: usize,
        patterns: &BackgroundPatterns,
        restrict: Option<&[Address]>,
        failures: &mut Vec<FailureRecord>,
    ) -> Result<(), MemError> {
        let config = sram.config();
        for (element_index, element) in test.elements().iter().enumerate() {
            // Pauses apply once per element, before its address sweep.
            for op in &element.ops {
                if let MarchOp::Pause(ms) = op {
                    sram.elapse_retention(f64::from(*ms));
                }
            }

            element.order.sweep(config.words(), restrict, |address| {
                let row = address.index();
                for (op_index, op) in element.ops.iter().enumerate() {
                    match op {
                        MarchOp::Pause(_) => {}
                        MarchOp::Write(value) => sram.write(address, patterns.word(*value, row))?,
                        MarchOp::NwrcWrite(value) => sram.write_nwrc(address, patterns.word(*value, row))?,
                        MarchOp::Read(value) => {
                            let expected = patterns.word(*value, row);
                            if let Some(observed) = sram.read_expect(address, expected)? {
                                failures.push(FailureRecord {
                                    phase,
                                    element: element_index,
                                    op: op_index,
                                    address,
                                    failing_bits: expected.mismatches(&observed),
                                });
                            }
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use fault_models::MemoryFault;
    use sram_model::cell::CellCoord;
    use sram_model::{MemConfig, Sram};

    fn memory() -> Sram {
        Sram::new(MemConfig::new(16, 4).unwrap())
    }

    #[test]
    fn fault_free_memory_passes_march_c_minus() {
        let mut sram = memory();
        let runner = MarchRunner::new();
        let outcome = runner
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(outcome.passed());
        // The whole March CW schedule, phase by phase, passes too.
        let mut sram = memory();
        assert!(runner
            .run_schedule(&mut sram, &algorithms::march_cw(4))
            .unwrap()
            .passed());
    }

    #[test]
    fn stuck_at_fault_is_detected_and_located() {
        let mut sram = memory();
        let site = CellCoord::new(Address::new(5), 2);
        MemoryFault::stuck_at_1(site).inject_into(&mut sram).unwrap();
        let test = algorithms::march_c_minus();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.sites(), vec![site]);
        // The first detection happens in an r0 operation (the cell reads 1).
        let first = &outcome.failures[0];
        assert_eq!(test.elements()[first.element].ops[first.op], MarchOp::Read(false));
        assert_eq!(first.failing_bits, vec![2]);
    }

    #[test]
    fn transition_fault_detected_by_march_c_minus_but_not_necessarily_by_mats_plus() {
        let mut sram = memory();
        MemoryFault::transition_up(CellCoord::new(Address::new(3), 0))
            .inject_into(&mut sram)
            .unwrap();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
    }

    #[test]
    fn drf_not_detected_by_plain_march_c_minus() {
        let mut sram = memory();
        MemoryFault::data_retention_a(CellCoord::new(Address::new(7), 1))
            .inject_into(&mut sram)
            .unwrap();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(
            outcome.passed(),
            "a DRF must escape a March test without NWRTM or pauses"
        );
    }

    #[test]
    fn drf_detected_by_nwrtm_merged_march_c_minus_without_pauses() {
        let mut sram = memory();
        let site = CellCoord::new(Address::new(7), 1);
        MemoryFault::data_retention_a(site)
            .inject_into(&mut sram)
            .unwrap();
        let test = algorithms::with_nwrtm(&algorithms::march_c_minus());
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.sites(), vec![site]);
        assert_eq!(test.pause_ms(), 0, "NWRTM must not require any retention pause");
    }

    #[test]
    fn drf_on_node_b_detected_by_nwrtm_as_well() {
        let mut sram = memory();
        let site = CellCoord::new(Address::new(2), 3);
        MemoryFault::data_retention_b(site)
            .inject_into(&mut sram)
            .unwrap();
        let test = algorithms::with_nwrtm(&algorithms::march_c_minus());
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.sites(), vec![site]);
    }

    #[test]
    fn drf_detected_by_pause_based_test_at_the_cost_of_200ms() {
        let mut sram = memory();
        MemoryFault::data_retention_a(CellCoord::new(Address::new(4), 0))
            .inject_into(&mut sram)
            .unwrap();
        let test = algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100);
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(test.pause_ms(), 200);
    }

    #[test]
    fn intra_word_coupling_needs_the_march_cw_background_phases() {
        // Victim bit 0 coupled to aggressor bit 1 of the same word: under
        // the solid background both bits always carry the same value, so a
        // CFst that forces the victim to the aggressor's own value is never
        // observable; March CW's binary background drives the two bits to
        // opposite values and exposes it.
        let config = MemConfig::new(8, 4).unwrap();
        let mut plain = Sram::new(config);
        let victim = CellCoord::new(Address::new(3), 0);
        let aggressor = CellCoord::new(Address::new(3), 1);
        let fault = MemoryFault::coupling_state(victim, aggressor, true, true);
        fault.inject_into(&mut plain).unwrap();
        let runner = MarchRunner::new();
        let plain_outcome = runner
            .run_test(&mut plain, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(
            plain_outcome.passed(),
            "solid background cannot sensitise this intra-word CFst"
        );

        let mut cw = Sram::new(config);
        fault.inject_into(&mut cw).unwrap();
        let cw_outcome = runner.run_schedule(&mut cw, &algorithms::march_cw(4)).unwrap();
        assert!(
            !cw_outcome.passed(),
            "March CW background phases must catch the intra-word CFst"
        );
    }

    #[test]
    fn sites_are_distinct_and_ascending() {
        let record = |address: u64, bits: Vec<usize>| FailureRecord {
            phase: 0,
            element: 1,
            op: 0,
            address: Address::new(address),
            failing_bits: bits.into(),
        };
        let outcome = RunOutcome {
            failures: vec![
                record(9, vec![3]),
                record(2, vec![0, 1]),
                record(9, vec![0, 3]),
                record(5, vec![]),
                record(2, vec![1]),
                record(0, vec![2]),
            ],
        };
        let site = |address: u64, bit: usize| CellCoord::new(Address::new(address), bit);
        assert_eq!(
            outcome.sites(),
            vec![site(0, 2), site(2, 0), site(2, 1), site(9, 0), site(9, 3)]
        );
    }
}
