//! The baseline diagnosis architecture of \[7,8\] (Fig. 1): shared BISD
//! controller plus a bi-directional serial interface per memory.
//!
//! Under the default [`DiagnosisKernel::BitParallel`] each pass steps
//! only the rows an installed fault can make deviate, the lane and
//! stepped rows of [`sram_model::Sram::row_classes`], worked out once
//! per memory before the first pass; a fault-free memory is skipped and
//! a memory with a stuck-open cell is swept whole. A memory whose pass
//! of the `M1` loop or the DRF loop locates nothing and ends in the
//! state it started in has reached a fixed point, and the rest of that
//! loop skips it. This is sound because a pass is a deterministic
//! function of the memory's state, its known sites and the test, and a
//! pass that locates nothing leaves the known sites as they were: every
//! later pass of the loop would repeat it exactly.
//! [`DiagnosisKernel::PerMemory`] sweeps every row of every memory in
//! every pass and is the dense oracle the row-restricted walk is checked
//! against. Cycles are the Eq. (1) closed form under both.

use crate::components::MemorySizeTable;
use crate::kernel::DiagnosisKernel;
use crate::log::{DiagnosisLog, FaultSite};
use crate::result::DiagnosisResult;
use crate::scheme::{DiagnosisScheme, MemoryUnderDiagnosis};
use march::{algorithms, BackgroundPatterns, DataBackground, MarchTest, ShardPlan};
use serial::{BidirectionalSerialInterface, ShiftDirection};
use sram_model::{Address, MemError, RowState};
use std::collections::{BTreeMap, BTreeSet};

/// Per-memory set of already-located `(address, bit)` sites, carried
/// across iterations; at the end of the run they are the memory's
/// located sites.
type KnownSites = BTreeSet<(Address, usize)>;

/// What the passes carry for one memory besides the memory itself,
/// indexed like the population slice so contiguous segments of memories
/// and their progress shard together.
struct MemoryProgress {
    known: KnownSites,
    /// The rows a pass steps: `None` sweeps every row, `Some` only the
    /// listed ones (ascending), and an empty list skips the memory.
    rows: Option<Vec<Address>>,
    /// Set when a pass of the running test located nothing and left
    /// the listed rows as it found them, so every later pass of the
    /// same test would repeat it; the rest of the loop skips the memory.
    fixed: bool,
}

impl MemoryProgress {
    /// Whether the next pass must run the memory: it has fault rows (or
    /// is swept whole) and has not reached a fixed point.
    fn runs(&self) -> bool {
        !self.fixed && self.rows.as_ref().is_none_or(|rows| !rows.is_empty())
    }
}

/// Clears every fixed-point flag before a new test starts: a memory
/// fixed under one test may still locate something under another.
fn start_test(progress: &mut [MemoryProgress]) {
    for progress in progress {
        progress.fixed = false;
    }
}

/// The baseline scheme of \[7,8\].
///
/// Test data is shifted through the memory cells by the bi-directional
/// serial interface, so every operation costs one clock per bit and one
/// March element can locate at most one new faulty cell per shift
/// direction. The `M1` element group of DiagRSMarch (17 operations per
/// address) is therefore iterated until an iteration finds nothing new;
/// with the final verification pass included, the run costs
/// `(17·k + 9)·n·c` cycles — Eq. (1) of the paper — where `k` grows with
/// the number of defects. Data-retention faults are not diagnosed unless
/// the classical pause-based extension is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HuangScheme {
    clock_period_ns: f64,
    max_iterations: u64,
    retention_pause_ms: Option<u32>,
    kernel: DiagnosisKernel,
}

impl HuangScheme {
    /// Creates the baseline scheme with the given diagnosis clock period.
    ///
    /// # Panics
    ///
    /// Panics if the clock period is not positive and finite.
    pub fn new(clock_period_ns: f64) -> Self {
        assert!(
            clock_period_ns.is_finite() && clock_period_ns > 0.0,
            "clock period must be positive"
        );
        HuangScheme {
            clock_period_ns,
            max_iterations: 4096,
            retention_pause_ms: None,
            kernel: DiagnosisKernel::default(),
        }
    }

    /// Selects the population-stepping kernel, replacing the
    /// bit-parallel default [`HuangScheme::new`] picks.
    ///
    /// For the baseline the bit-parallel kernel steps, in every pass,
    /// only each memory's fault rows (the lane and stepped rows of
    /// [`sram_model::Sram::row_classes`]), computed once before the
    /// first pass: it skips fault-free memories and
    /// sweeps a memory with a stuck-open cell whole. Every baseline
    /// test opens with a full write element, so a fault-free row is
    /// only read after being written in the same pass and never
    /// mismatches; the located sites, the verdicts and the Eq. (1)
    /// iteration count are those of [`DiagnosisKernel::PerMemory`], the
    /// dense oracle that sweeps every row of every memory in every pass.
    ///
    /// Within the `M1` loop and the DRF loop the bit-parallel kernel
    /// also skips a memory once a pass of it locates nothing and ends in
    /// the exact state it started in: the stored words and overlay cells
    /// of its fault rows, decay included, and the last sensed word
    /// ([`sram_model::Sram::capture_rows`]). A pass is a deterministic
    /// function of that state, the memory's known sites and the test,
    /// and a pass that locates nothing leaves the known sites as they
    /// were, so every later pass of the loop would repeat it, locate
    /// nothing and leave the memory as it is. Skipping it changes no
    /// site, no verdict of the loop and no state a later test starts
    /// from. The flags are cleared before each loop and before the base
    /// pass, since another test may find what this one cannot. A memory
    /// swept whole is never skipped.
    pub fn with_kernel(mut self, kernel: DiagnosisKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The population-stepping kernel in use.
    pub fn kernel(&self) -> DiagnosisKernel {
        self.kernel
    }

    /// Caps the number of `M1` iterations (a safety net; the scheme
    /// normally stops as soon as an iteration finds no new fault).
    pub fn with_max_iterations(mut self, max_iterations: u64) -> Self {
        assert!(max_iterations > 0, "at least one iteration is required");
        self.max_iterations = max_iterations;
        self
    }

    /// Enables the classical pause-based data-retention extension with
    /// the given pause per retention state (the paper assumes 100 ms per
    /// state, 200 ms in total).
    pub fn with_retention_pause(mut self, pause_ms: u32) -> Self {
        self.retention_pause_ms = Some(pause_ms);
        self
    }

    /// Diagnosis clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        self.clock_period_ns
    }
}

impl DiagnosisScheme for HuangScheme {
    fn name(&self) -> &str {
        "baseline (bi-directional serial interface)"
    }

    fn diagnose(&self, memories: &mut [MemoryUnderDiagnosis]) -> Result<DiagnosisResult, MemError> {
        self.diagnose_with(ShardPlan::default(), memories)
    }
}

impl HuangScheme {
    /// Diagnoses a population under an explicit [`ShardPlan`].
    ///
    /// The baseline iterates globally (every memory takes part in every
    /// `M1` pass, and the pass count is what Eq. (1) charges), so
    /// sharding happens *inside* each pass: the memories the pass runs
    /// are split into contiguous per-worker segments, each worker runs
    /// the pass over its memories and adds what they locate to their
    /// known sites, and the found-anything verdicts OR-reduce across
    /// segments to drive the global iteration. Each memory's known sites are its own, so
    /// the result is byte-identical to the sequential walk for every
    /// plan. The mismatch count is one per located site: the serial
    /// interface shifts out only a newly located cell.
    ///
    /// # Errors
    ///
    /// Returns an error if the population is empty or a memory-model
    /// validation error occurs (which indicates a bug in the scheme).
    pub fn diagnose_with(
        &self,
        plan: ShardPlan,
        memories: &mut [MemoryUnderDiagnosis],
    ) -> Result<DiagnosisResult, MemError> {
        assert!(!memories.is_empty(), "diagnosis needs at least one memory");

        let table: MemorySizeTable = memories.iter().map(|m| (m.id, m.config())).collect();
        let n_max = table.max_words();
        let c_max = table.max_width() as u64;

        let mut cycles: u64 = 0;
        let mut pause_ms: f64 = 0.0;
        // The installed faults do not change during diagnosis, so each
        // memory's fault rows are worked out once, here.
        let mut progress: Vec<MemoryProgress> = memories
            .iter()
            .map(|memory| MemoryProgress {
                known: KnownSites::new(),
                rows: match self.kernel {
                    // Contents play no part: every baseline test opens
                    // with a full write element.
                    DiagnosisKernel::BitParallel => memory.sram.row_classes().map(|classes| {
                        let mut rows: Vec<Address> = classes.lane.into_iter().map(|(row, _)| row).collect();
                        rows.extend(classes.stepped);
                        rows.sort_unstable();
                        rows
                    }),
                    DiagnosisKernel::PerMemory => None,
                },
                fixed: false,
            })
            .collect();

        // The solid-background pattern words depend only on a memory's
        // IO width, so one set per distinct width serves every memory of
        // the population across every iteration — instead of each
        // element execution reassembling its own pattern words per
        // memory per pass.
        let width_patterns: BTreeMap<usize, BackgroundPatterns> = memories
            .iter()
            .map(|m| m.config().width())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|width| (width, DataBackground::Solid.patterns(width)))
            .collect();

        // Iterate the M1 element group: each iteration can locate at most
        // one new fault per memory and per shift direction, so iteration
        // continues until a full pass finds nothing new anywhere.
        let m1 = algorithms::diag_rs_march_m1();
        let mut iterations: u64 = 0;
        start_test(&mut progress);
        loop {
            iterations += 1;
            cycles += m1.complexity_per_address() as u64 * n_max * c_max;
            let found_new = run_population_pass(plan, memories, &mut progress, &m1, &width_patterns, 2)?;
            if !found_new || iterations >= self.max_iterations {
                break;
            }
        }

        // The remaining DiagRSMarch elements run once (9 operations per
        // address, still bit-serial).
        let base = algorithms::diag_rs_march_base();
        cycles += base.complexity_per_address() as u64 * n_max * c_max;
        start_test(&mut progress);
        run_population_pass(plan, memories, &mut progress, &base, &width_patterns, usize::MAX)?;

        // Optional pause-based data-retention extension: 8·k extra units
        // of serialised complexity plus the retention pauses.
        if let Some(retention) = self.retention_pause_ms {
            let drf_test = retention_identification_test(retention);
            let mut drf_iterations: u64 = 0;
            start_test(&mut progress);
            loop {
                drf_iterations += 1;
                cycles += 8 * n_max * c_max;
                let found_new =
                    run_population_pass(plan, memories, &mut progress, &drf_test, &width_patterns, 2)?;
                if !found_new || drf_iterations >= self.max_iterations {
                    break;
                }
            }
            pause_ms += 2.0 * f64::from(retention);
        }

        let mismatches = progress.iter().map(|progress| progress.known.len()).sum();
        let sites = memories.iter().zip(&progress).flat_map(|(memory, progress)| {
            progress
                .known
                .iter()
                .map(|&(address, bit)| FaultSite::new(memory.id, address, bit))
        });
        Ok(DiagnosisResult {
            log: DiagnosisLog::new(sites.collect(), mismatches),
            cycles,
            pause_ms,
            iterations,
            clock_period_ns: self.clock_period_ns,
        })
    }
}

/// Runs one element-group pass over the whole population under a shard
/// plan, locating at most `per_direction_budget` new faults per memory
/// and shift direction, and returns whether any memory located
/// something new.
///
/// The memories the pass runs (zipped with their progress; fault-free
/// and fixed memories would locate nothing and are left out) go to the
/// deterministic executor in contiguous mutable segments. The work of a
/// pass is the cells it steps, so the cost-balanced partition weights
/// each memory by its stepped rows times its width. The found-anything
/// verdicts OR-reduce, which is associative over adjacent segments, so
/// the merged pass equals the sequential walk for every plan.
fn run_population_pass(
    plan: ShardPlan,
    memories: &mut [MemoryUnderDiagnosis],
    progress: &mut [MemoryProgress],
    test: &MarchTest,
    width_patterns: &BTreeMap<usize, BackgroundPatterns>,
    per_direction_budget: usize,
) -> Result<bool, MemError> {
    let mut pairs: Vec<(&mut MemoryUnderDiagnosis, &mut MemoryProgress)> = memories
        .iter_mut()
        .zip(progress.iter_mut())
        .filter(|(_, progress)| progress.runs())
        .collect();
    let worker_results: Vec<Result<bool, MemError>> = plan.run_segments(
        &mut pairs,
        |_, (memory, progress)| {
            let config = memory.config();
            let rows = progress
                .rows
                .as_ref()
                .map_or(config.words(), |rows| rows.len() as u64);
            rows * config.width() as u64
        },
        |_, segment| run_segment_pass(segment, test, width_patterns, per_direction_budget),
    );
    let mut found_new = false;
    for result in worker_results {
        found_new |= result?;
    }
    Ok(found_new)
}

/// Runs one element-group pass over a contiguous population segment,
/// returning whether anything new was located, and marks each
/// row-restricted memory that located nothing and ended where it started
/// as fixed.
fn run_segment_pass(
    segment: &mut [(&mut MemoryUnderDiagnosis, &mut MemoryProgress)],
    test: &MarchTest,
    width_patterns: &BTreeMap<usize, BackgroundPatterns>,
    per_direction_budget: usize,
) -> Result<bool, MemError> {
    let mut found_new = false;
    let (mut start, mut end) = (RowState::default(), RowState::default());
    for (memory, progress) in segment.iter_mut() {
        if let Some(rows) = &progress.rows {
            memory.sram.capture_rows(rows, &mut start);
        }
        let patterns = &width_patterns[&memory.config().width()];
        let found = run_group_serially(
            memory,
            test,
            patterns,
            &mut progress.known,
            progress.rows.as_deref(),
            per_direction_budget,
        )?;
        if found > 0 {
            found_new = true;
        } else if let Some(rows) = &progress.rows {
            memory.sram.capture_rows(rows, &mut end);
            progress.fixed = start == end;
        }
    }
    Ok(found_new)
}

/// The pause-based DRF identification pass used by the baseline when the
/// retention extension is enabled: `⇕(w0); del; ⇕(r0,w1); del; ⇕(r1)`.
fn retention_identification_test(pause_ms: u32) -> MarchTest {
    algorithms::with_retention_pauses(&MarchTest::new("DRF identification", Vec::new()), pause_ms)
}

/// Runs the elements of `test` through the bi-directional serial
/// interface of one memory, over every row or only `rows`, locating at
/// most `per_direction_budget` new faults per shift direction, and
/// returns how many new faults were located. Located faults are added
/// to `known`. `patterns` is the population-shared pattern set for this
/// memory's width.
fn run_group_serially(
    memory: &mut MemoryUnderDiagnosis,
    test: &MarchTest,
    patterns: &BackgroundPatterns,
    known: &mut KnownSites,
    rows: Option<&[Address]>,
    per_direction_budget: usize,
) -> Result<usize, MemError> {
    let interface = BidirectionalSerialInterface::new(memory.config().width());
    let mut found = 0usize;
    let mut found_right = 0usize;
    let mut found_left = 0usize;

    for (index, element) in test.elements().iter().enumerate() {
        // Alternate shift directions across read-bearing elements, as
        // DiagRSMarch alternates right- and left-shift operations.
        let direction = if index % 2 == 0 {
            ShiftDirection::Right
        } else {
            ShiftDirection::Left
        };
        let outcome =
            interface.run_element_with(&mut memory.sram, element, patterns, direction, known, rows)?;
        if let Some((address, bit)) = outcome.located {
            let budget_used = match direction {
                ShiftDirection::Right => &mut found_right,
                ShiftDirection::Left => &mut found_left,
            };
            if *budget_used < per_direction_budget && known.insert((address, bit)) {
                *budget_used += 1;
                found += 1;
            }
        }
    }
    Ok(found)
}

impl std::fmt::Display for HuangScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (t = {} ns)", self.name(), self.clock_period_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_models::MemoryFault;
    use sram_model::cell::CellCoord;
    use sram_model::{MemConfig, MemoryId};

    fn population() -> Vec<MemoryUnderDiagnosis> {
        vec![
            MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(32, 8).unwrap()),
            MemoryUnderDiagnosis::pristine(MemoryId::new(1), MemConfig::new(16, 4).unwrap()),
        ]
    }

    #[test]
    fn clean_population_takes_one_verification_iteration() {
        let mut memories = population();
        let result = HuangScheme::new(10.0).diagnose(&mut memories).unwrap();
        assert!(result.is_clean());
        assert_eq!(result.iterations, 1);
        // (17*1 + 9) * n_max * c_max cycles.
        assert_eq!(result.cycles, 26 * 32 * 8);
    }

    #[test]
    fn each_additional_fault_costs_additional_iterations() {
        let sites = [
            CellCoord::new(Address::new(1), 0),
            CellCoord::new(Address::new(3), 2),
            CellCoord::new(Address::new(9), 5),
            CellCoord::new(Address::new(20), 7),
            CellCoord::new(Address::new(30), 1),
        ];
        let mut memories = population();
        for site in sites {
            MemoryFault::stuck_at_1(site)
                .inject_into(&mut memories[0].sram)
                .unwrap();
        }
        let result = HuangScheme::new(10.0).diagnose(&mut memories).unwrap();
        assert!(
            result.iterations > 1,
            "five faults cannot be located in a single M1 iteration"
        );
        assert_eq!(result.sites(MemoryId::new(0)).len(), sites.len());
        assert_eq!(result.cycles, (17 * result.iterations + 9) * 32 * 8);
    }

    #[test]
    fn diagnosis_time_grows_with_the_defect_count() {
        let mut few = population();
        MemoryFault::stuck_at_1(CellCoord::new(Address::new(1), 0))
            .inject_into(&mut few[0].sram)
            .unwrap();
        let few_result = HuangScheme::new(10.0).diagnose(&mut few).unwrap();

        let mut many = population();
        for address in 0..8u64 {
            MemoryFault::stuck_at_1(CellCoord::new(Address::new(address * 4), 3))
                .inject_into(&mut many[0].sram)
                .unwrap();
        }
        let many_result = HuangScheme::new(10.0).diagnose(&mut many).unwrap();
        assert!(many_result.cycles > few_result.cycles);
        assert!(many_result.iterations > few_result.iterations);
    }

    #[test]
    fn drf_is_missed_without_the_retention_extension_and_found_with_it() {
        let site = CellCoord::new(Address::new(5), 2);
        let fault = MemoryFault::data_retention_a(site);

        let mut plain = population();
        fault.inject_into(&mut plain[0].sram).unwrap();
        let plain_result = HuangScheme::new(10.0).diagnose(&mut plain).unwrap();
        assert!(plain_result.is_clean(), "the baseline does not diagnose DRFs");
        assert_eq!(plain_result.pause_ms, 0.0);

        let mut extended = population();
        fault.inject_into(&mut extended[0].sram).unwrap();
        let extended_result = HuangScheme::new(10.0)
            .with_retention_pause(100)
            .diagnose(&mut extended)
            .unwrap();
        assert_eq!(extended_result.sites(MemoryId::new(0)).len(), 1);
        assert!(extended_result.pause_ms >= 200.0);
    }

    #[test]
    fn located_sites_match_injected_stuck_at_ground_truth() {
        let sites = [
            CellCoord::new(Address::new(2), 1),
            CellCoord::new(Address::new(11), 3),
        ];
        let mut memories = population();
        for site in sites {
            MemoryFault::stuck_at_0(site)
                .inject_into(&mut memories[1].sram)
                .unwrap();
        }
        let result = HuangScheme::new(10.0).diagnose(&mut memories).unwrap();
        let located = result.sites(MemoryId::new(1));
        assert_eq!(located.len(), 2);
        for site in sites {
            assert!(located
                .iter()
                .any(|s| s.address == site.address && s.bit == site.bit));
        }
    }

    #[test]
    fn max_iterations_caps_the_loop() {
        let mut memories = population();
        for address in 0..16u64 {
            MemoryFault::stuck_at_1(CellCoord::new(Address::new(address), 0))
                .inject_into(&mut memories[1].sram)
                .unwrap();
        }
        let result = HuangScheme::new(10.0)
            .with_max_iterations(3)
            .diagnose(&mut memories)
            .unwrap();
        assert_eq!(result.iterations, 3);
    }

    #[test]
    fn accessors_and_display() {
        let scheme = HuangScheme::new(10.0).with_retention_pause(100);
        assert_eq!(scheme.clock_period_ns(), 10.0);
        assert!(scheme.to_string().contains("bi-directional"));
    }

    #[test]
    #[should_panic(expected = "clock period")]
    fn non_positive_clock_period_panics() {
        let _ = HuangScheme::new(-1.0);
    }
}
