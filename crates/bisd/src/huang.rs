//! The baseline diagnosis architecture of \[7,8\] (Fig. 1): shared BISD
//! controller plus a bi-directional serial interface per memory.

use crate::components::MemorySizeTable;
use crate::kernel::DiagnosisKernel;
use crate::log::{DiagnosisLog, DiagnosisRecord};
use crate::result::DiagnosisResult;
use crate::scheme::{DiagnosisScheme, MemoryUnderDiagnosis};
use march::{algorithms, BackgroundPatterns, DataBackground, MarchElement, MarchTest, ShardPlan};
use serial::{BidirectionalSerialInterface, ShiftDirection};
use sram_model::{Address, MemError, MemoryId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-memory set of already-located `(address, bit)` sites, carried
/// across iterations (indexed like the population slice so contiguous
/// segments of memories and known-sets shard together).
type KnownSites = BTreeSet<(Address, usize)>;

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
    /// For the baseline the bit-parallel kernel only skips memories
    /// that are provably pristine (fault-free, power-on contents) for
    /// the duration of a pass — the bi-directional serial interface
    /// cannot locate anything in them, so the log, the verdicts and
    /// the Eq. (1) iteration count are unchanged.
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

    /// True if the pause-based DRF extension is enabled.
    pub fn diagnoses_drf(&self) -> bool {
        self.retention_pause_ms.is_some()
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
    /// The baseline iterates globally (every memory runs every `M1`
    /// pass, and the pass count is what Eq. (1) charges), so sharding
    /// happens *inside* each pass: the population is split into
    /// contiguous per-worker segments, each worker runs the pass over
    /// its memories, and the per-segment logs concatenate back in
    /// memory order — byte-identical to the sequential walk for every
    /// plan, while the found-anything verdicts OR-reduce across
    /// segments to drive the global iteration.
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

        let mut log = DiagnosisLog::new();
        let mut known: Vec<KnownSites> = vec![KnownSites::new(); memories.len()];
        let mut cycles: u64 = 0;
        let mut pause_ms: f64 = 0.0;
        let skip_pristine = self.kernel == DiagnosisKernel::BitParallel;
        let pass = |per_direction_budget| PassOptions {
            per_direction_budget,
            skip_pristine,
        };

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
        loop {
            iterations += 1;
            cycles += m1.complexity_per_address() as u64 * n_max * c_max;
            let found_new = run_population_pass(
                plan,
                memories,
                &mut known,
                &m1,
                &width_patterns,
                &mut log,
                pass(2),
            )?;
            if !found_new || iterations >= self.max_iterations {
                break;
            }
        }

        // The remaining DiagRSMarch elements run once (9 operations per
        // address, still bit-serial).
        let base = algorithms::diag_rs_march_base();
        cycles += base.complexity_per_address() as u64 * n_max * c_max;
        run_population_pass(
            plan,
            memories,
            &mut known,
            &base,
            &width_patterns,
            &mut log,
            pass(usize::MAX),
        )?;

        // Optional pause-based data-retention extension: 8·k extra units
        // of serialised complexity plus the retention pauses.
        if let Some(retention) = self.retention_pause_ms {
            let drf_test = retention_identification_test(retention);
            let mut drf_iterations: u64 = 0;
            loop {
                drf_iterations += 1;
                cycles += 8 * n_max * c_max;
                let found_new = run_population_pass(
                    plan,
                    memories,
                    &mut known,
                    &drf_test,
                    &width_patterns,
                    &mut log,
                    pass(2),
                )?;
                if !found_new || drf_iterations >= self.max_iterations {
                    break;
                }
            }
            pause_ms += 2.0 * f64::from(retention);
        }

        Ok(DiagnosisResult {
            scheme: self.name().to_string(),
            log,
            cycles,
            pause_ms,
            iterations,
            clock_period_ns: self.clock_period_ns,
        })
    }
}

/// Per-pass stepping options shared by every segment of a population
/// pass: the per-shift-direction location budget of the pass, and
/// whether provably pristine members may be skipped (the bit-parallel
/// kernel's fast path).
#[derive(Clone, Copy)]
struct PassOptions {
    per_direction_budget: usize,
    skip_pristine: bool,
}

/// Runs one element-group pass over the whole population under a shard
/// plan, appending located-fault records to `log` in memory order, and
/// returns whether any memory located something new.
///
/// The population (zipped with its per-memory known-site sets) runs on
/// the deterministic executor over contiguous mutable segments; the
/// baseline's bit-serial cost is `words × width` cycles per memory, so
/// the cost-balanced partition weights each memory by its cell count. The
/// per-segment logs concatenate in memory order and the found-anything
/// verdicts OR-reduce — both associative over adjacent segments, so the
/// merged pass equals the sequential walk for every plan.
fn run_population_pass(
    plan: ShardPlan,
    memories: &mut [MemoryUnderDiagnosis],
    known: &mut [KnownSites],
    test: &MarchTest,
    width_patterns: &BTreeMap<usize, BackgroundPatterns>,
    log: &mut DiagnosisLog,
    options: PassOptions,
) -> Result<bool, MemError> {
    let mut pairs: Vec<(&mut MemoryUnderDiagnosis, &mut KnownSites)> =
        memories.iter_mut().zip(known.iter_mut()).collect();
    let worker_results: Vec<Result<(bool, DiagnosisLog), MemError>> = plan.run_segments(
        &mut pairs,
        |_, (memory, _)| memory.config().cells(),
        |_, segment| run_segment_pass(segment, test, width_patterns, options),
    );
    let mut found_new = false;
    for result in worker_results {
        let (segment_found, segment_log) = result?;
        found_new |= segment_found;
        log.merge(segment_log);
    }
    Ok(found_new)
}

/// Runs one element-group pass over a contiguous population segment,
/// returning the segment's located-fault records (in memory order) and
/// whether anything new was located.
fn run_segment_pass(
    segment: &mut [(&mut MemoryUnderDiagnosis, &mut KnownSites)],
    test: &MarchTest,
    width_patterns: &BTreeMap<usize, BackgroundPatterns>,
    options: PassOptions,
) -> Result<(bool, DiagnosisLog), MemError> {
    let mut log = DiagnosisLog::new();
    let mut found_new = false;
    for (memory, known_sites) in segment.iter_mut() {
        // Under the bit-parallel kernel, memories that are provably
        // pristine (no installed faults, power-on contents) are skipped
        // wholesale: the bi-directional interface cannot locate anything
        // in them, every element of the baseline's tests is
        // solid-background (reads expect what the preceding writes of
        // the same pass delivered), and a skipped memory's contents stay
        // at power-on — so the skip remains valid on every later pass
        // and the log, verdicts and Eq. (1) iteration count match the
        // per-memory oracle exactly.
        if options.skip_pristine && memory.sram.is_pristine() {
            continue;
        }
        let patterns = &width_patterns[&memory.config().width()];
        let found = run_group_serially(
            memory,
            test,
            patterns,
            &mut log,
            known_sites,
            options.per_direction_budget,
        )?;
        found_new |= found > 0;
    }
    Ok((found_new, log))
}

/// The pause-based DRF identification pass used by the baseline when the
/// retention extension is enabled: `⇕(w0); del; ⇕(r0,w1); del; ⇕(r1)`.
fn retention_identification_test(pause_ms: u32) -> MarchTest {
    algorithms::with_retention_pauses(&MarchTest::new("DRF identification", Vec::new()), pause_ms)
}

/// Runs the elements of `test` through the bi-directional serial
/// interface of one memory, locating at most `per_direction_budget` new
/// faults per shift direction, and returns how many new faults were
/// located. Located faults are appended to `known` and to the global log.
/// `patterns` is the population-shared pattern set for this memory's
/// width.
fn run_group_serially(
    memory: &mut MemoryUnderDiagnosis,
    test: &MarchTest,
    patterns: &BackgroundPatterns,
    log: &mut DiagnosisLog,
    known: &mut BTreeSet<(Address, usize)>,
    per_direction_budget: usize,
) -> Result<usize, MemError> {
    let width = memory.config().width();
    let interface = BidirectionalSerialInterface::new(width);
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
        let outcome = interface.run_element_with(&mut memory.sram, element, patterns, direction, known)?;
        if let Some((address, bit)) = outcome.located {
            let budget_used = match direction {
                ShiftDirection::Right => &mut found_right,
                ShiftDirection::Left => &mut found_left,
            };
            if *budget_used < per_direction_budget && known.insert((address, bit)) {
                *budget_used += 1;
                found += 1;
                log.push(located_record(memory.id, element, address, bit, width));
            }
        }
    }
    Ok(found)
}

/// Builds the diagnosis record the baseline controller registers for one
/// located cell: the failing address, bit and data background (the
/// serial interface does not hand back the full word, so expected and
/// observed are reconstructed from the background and the failing bit).
fn located_record(
    memory: MemoryId,
    element: &MarchElement,
    address: Address,
    bit: usize,
    width: usize,
) -> DiagnosisRecord {
    let expected = DataBackground::Solid.pattern(width, address.index());
    let mut observed = expected.clone();
    observed.set(bit, !observed.bit(bit));
    DiagnosisRecord {
        memory,
        address,
        background: DataBackground::Solid,
        element: element.label.clone().unwrap_or_else(|| "M1".to_string()),
        expected,
        observed,
        failing_bits: vec![bit].into(),
    }
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
    use sram_model::MemConfig;

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
        assert!(scheme.diagnoses_drf());
        assert_eq!(scheme.clock_period_ns(), 10.0);
        assert!(scheme.to_string().contains("bi-directional"));
        assert!(!HuangScheme::new(10.0).diagnoses_drf());
    }

    #[test]
    #[should_panic(expected = "clock period")]
    fn non_positive_clock_period_panics() {
        let _ = HuangScheme::new(-1.0);
    }
}
