//! The proposed fast diagnosis scheme (Fig. 3): SPC/PSC converters,
//! March CW and NWRTM-based data-retention diagnosis.

use crate::components::{AddressTrigger, ComparatorArray, DataBackgroundGenerator, StepIndex};
use crate::kernel::DiagnosisKernel;
use crate::log::{DiagnosisLog, DiagnosisRecord};
use crate::population::GoldenStore;
use crate::result::DiagnosisResult;
use crate::scheme::{DiagnosisScheme, MemoryUnderDiagnosis};
use esram_exec::{failpoint, CostCalibration, CostDomain, ShardPlan};
use march::{algorithms, AddressOrder, DataBackground, MarchElement, MarchOp, MarchSchedule};
use serial::{ParallelToSerialConverter, PatternDeliveryBus, ShiftOrder};
use sram_model::{Address, DataWord, MemConfig, MemError, MemoryId, MemoryPort, Sram};
use std::collections::BTreeMap;
use std::fmt;

/// How the scheme handles data-retention faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrfMode {
    /// Ignore DRFs (what the baseline architecture of \[7,8\] does).
    None,
    /// Merge NWRTM No-Write-Recovery cycles into the last phase: DRFs are
    /// located at speed with no pause (the paper's proposal).
    #[default]
    Nwrtm,
    /// Classical pause-based DRF testing with the given pause per
    /// retention state in milliseconds (kept for comparison).
    RetentionPause(u32),
}

impl fmt::Display for DrfMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrfMode::None => write!(f, "no DRF diagnosis"),
            DrfMode::Nwrtm => write!(f, "NWRTM"),
            DrfMode::RetentionPause(ms) => write!(f, "retention pause {ms} ms"),
        }
    }
}

/// The proposed diagnosis scheme.
///
/// Patterns are delivered serially over the shared bus once per March
/// element, applied in parallel through each memory's SPC, and the read
/// responses are captured in each memory's PSC and shifted back to the
/// controller bit by bit while the memory idles. Every memory is
/// diagnosed concurrently; the run length is set by the largest (most
/// words) and widest (most IO bits) memory, exactly as in Eq. (2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastScheme {
    clock_period_ns: f64,
    drf_mode: DrfMode,
    shift_order: ShiftOrder,
    use_march_cw: bool,
    kernel: DiagnosisKernel,
}

impl FastScheme {
    /// Creates the scheme with the paper's defaults: March CW, NWRTM DRF
    /// diagnosis and MSB-first pattern delivery.
    ///
    /// # Panics
    ///
    /// Panics if the clock period is not positive and finite.
    pub fn new(clock_period_ns: f64) -> Self {
        assert!(
            clock_period_ns.is_finite() && clock_period_ns > 0.0,
            "clock period must be positive"
        );
        FastScheme {
            clock_period_ns,
            drf_mode: DrfMode::Nwrtm,
            shift_order: ShiftOrder::MsbFirst,
            use_march_cw: true,
            kernel: DiagnosisKernel::default(),
        }
    }

    /// Selects the DRF handling mode.
    pub fn with_drf_mode(mut self, mode: DrfMode) -> Self {
        self.drf_mode = mode;
        self
    }

    /// Selects the population-stepping kernel, replacing the
    /// bit-parallel default [`FastScheme::new`] picks. Both kernels
    /// produce byte-identical results; `PerMemory` is the dense oracle
    /// the equivalence suite compares against.
    pub fn with_kernel(mut self, kernel: DiagnosisKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The population-stepping kernel in use.
    pub fn kernel(&self) -> DiagnosisKernel {
        self.kernel
    }

    /// Selects the serial delivery order (LSB-first exists only for the
    /// Sec. 3.2 ablation; MSB-first is the correct design).
    pub fn with_shift_order(mut self, order: ShiftOrder) -> Self {
        self.shift_order = order;
        self
    }

    /// Uses plain March C− instead of March CW (ablation of the
    /// intra-word background phases).
    pub fn with_march_c_minus(mut self) -> Self {
        self.use_march_cw = false;
        self
    }

    /// Diagnosis clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        self.clock_period_ns
    }

    /// Active DRF mode.
    pub fn drf_mode(&self) -> DrfMode {
        self.drf_mode
    }

    /// The March programme the scheme will execute for a population
    /// whose widest memory has `widest_width` IO bits.
    pub fn schedule(&self, widest_width: usize) -> MarchSchedule {
        let base = if self.use_march_cw {
            algorithms::march_cw(widest_width)
        } else {
            MarchSchedule::single(algorithms::march_c_minus(), DataBackground::Solid)
        };
        match self.drf_mode {
            DrfMode::None => base,
            DrfMode::Nwrtm => base.map_last_phase(format!("{} + NWRTM", base.name()), algorithms::with_nwrtm),
            DrfMode::RetentionPause(ms) => base
                .map_last_phase(format!("{} + retention pauses", base.name()), |t| {
                    algorithms::with_retention_pauses(t, ms)
                }),
        }
    }
}

impl DiagnosisScheme for FastScheme {
    fn name(&self) -> &str {
        "fast (SPC/PSC)"
    }

    fn diagnose(&self, memories: &mut [MemoryUnderDiagnosis]) -> Result<DiagnosisResult, MemError> {
        self.diagnose_with(ShardPlan::default(), memories)
    }
}

/// One March element of the schedule as planned by the controller before
/// any memory is touched: its position in the schedule, the comparator
/// label, the per-element retention pause and the serially delivered
/// pattern words, keyed by logical write value and distinct IO width
/// (all SPCs of one width capture identical bits, so a width-keyed
/// delivery serves every shard segment regardless of how the population
/// is split).
#[derive(Debug)]
struct ElementPlan {
    phase_index: usize,
    element_index: usize,
    background: DataBackground,
    label: String,
    pause_ms: u64,
    /// `delivered[value][width]` — the word an SPC of `width` presents
    /// after the broadcast for logical `value`.
    delivered: BTreeMap<bool, BTreeMap<usize, DataWord>>,
}

impl FastScheme {
    /// Diagnoses a population of [`MemoryUnderDiagnosis`] under an
    /// explicit [`ShardPlan`] (what [`DiagnosisScheme::diagnose`] calls
    /// with the default plan). Output is byte-identical for every plan.
    ///
    /// # Errors
    ///
    /// Returns an error on memory-model validation failures (which
    /// indicate a bug in the scheme, not in the population).
    pub fn diagnose_with(
        &self,
        plan: ShardPlan,
        memories: &mut [MemoryUnderDiagnosis],
    ) -> Result<DiagnosisResult, MemError> {
        let mut members: Vec<(MemoryId, &mut Sram)> =
            memories.iter_mut().map(|m| (m.id, &mut m.sram)).collect();
        self.diagnose_ports_with(plan, &mut members)
    }

    /// Diagnoses a population presented as `(id, memory)` pairs over any
    /// [`MemoryPort`] implementation, under an explicit [`ShardPlan`].
    /// This is the generic core [`FastScheme::diagnose_with`] wraps; the
    /// dense-vs-packed equivalence suite drives it with
    /// [`sram_model::ReferenceSram`] populations.
    ///
    /// The population is split into contiguous segments by the
    /// deterministic executor into calibrated cost-weighted per-worker
    /// chunks; memories are independent given the shared write stream. Each segment replays the planned schedule with its own
    /// [`GoldenStore`] segment view, PSCs and comparator, and the
    /// per-segment logs are merged back in exact population order — the
    /// result is byte-identical to the sequential (1-thread) walk for
    /// every plan, which the population-shard determinism suite asserts.
    ///
    /// # Errors
    ///
    /// Returns an error on memory-model validation failures (which
    /// indicate a bug in the scheme, not in the population).
    pub fn diagnose_ports_with<M: MemoryPort + Send>(
        &self,
        plan: ShardPlan,
        memories: &mut [(MemoryId, M)],
    ) -> Result<DiagnosisResult, MemError> {
        assert!(!memories.is_empty(), "diagnosis needs at least one memory");
        let configs: Vec<MemConfig> = memories.iter().map(|(_, m)| m.config()).collect();
        let population = self.plan_population(&configs);
        let worker_results: Vec<Result<SegmentOutcome, MemError>> = plan.run_segments(
            memories,
            |index, _| population.member_cost(index),
            |base, segment| population.run_segment(base, segment),
        );
        let mut outcomes = Vec::with_capacity(worker_results.len());
        for result in worker_results {
            outcomes.push(result?);
        }
        Ok(population.merge(outcomes))
    }

    /// Plans one diagnosis run for a population of the given geometries
    /// — everything the controller computes *before* any memory is
    /// touched: the schedule, the serially delivered pattern words per
    /// element, the closed-form Eq. (2) cycle/pause accounting and the
    /// kernel decision. The returned [`PopulationPlan`] can then replay
    /// any contiguous segment of the population independently
    /// ([`PopulationPlan::run_segment`]) and merge the segment outcomes
    /// back into the sequential-order result
    /// ([`PopulationPlan::merge`]).
    ///
    /// [`FastScheme::diagnose_ports_with`] is exactly this plus the
    /// executor in between; the fleet runner in `esram-diag` flattens
    /// *several* populations' members into one executor run against
    /// their respective plans.
    pub fn plan_population(&self, configs: &[MemConfig]) -> PopulationPlan {
        assert!(!configs.is_empty(), "diagnosis needs at least one memory");
        let n_max = configs
            .iter()
            .map(|config| config.words())
            .max()
            .expect("non-empty");
        let c_max = configs
            .iter()
            .map(|config| config.width())
            .max()
            .expect("non-empty");
        let generator = DataBackgroundGenerator::new(c_max);
        let widths: Vec<usize> = configs.iter().map(|config| config.width()).collect();
        let schedule = self.schedule(c_max);
        let backgrounds: Vec<DataBackground> =
            schedule.phases().iter().map(|phase| phase.background).collect();
        let trigger = AddressTrigger::new(n_max);

        // The controller's per-element work — serial pattern delivery
        // through the shared bus and the closed-form cycle accounting —
        // is population-global, so it is planned exactly once up front;
        // the workers then replay the planned elements over their
        // segments without touching the shared bus or the counters.
        let mut cycles: u64 = 0;
        let mut pause_ms: f64 = 0.0;
        let mut plans: Vec<ElementPlan> = Vec::new();
        for (phase_index, phase) in schedule.phases().iter().enumerate() {
            for (element_index, element) in phase.test.elements().iter().enumerate() {
                let label = element
                    .label
                    .clone()
                    .unwrap_or_else(|| format!("{}#{}", phase.test.name(), element_index));
                pause_ms += element.pause_ms() as f64;
                let delivered =
                    self.deliver_patterns(element, phase.background, &generator, &widths, &mut cycles);
                cycles += Self::element_cycles(element, n_max, c_max);
                plans.push(ElementPlan {
                    phase_index,
                    element_index,
                    background: phase.background,
                    label,
                    pause_ms: element.pause_ms(),
                    delivered,
                });
            }
        }

        // The bit-parallel kernel's fast/slow split is sound only while
        // "what the SPCs deliver" equals "what the golden model
        // expects": then a fault-free pristine row can never mismatch,
        // so skipping its operations is unobservable. The LSB-first
        // Sec. 3.2 ablation deliberately breaks that equality (narrow
        // memories receive corrupted backgrounds), so any planned
        // delivery deviating from the ideal pattern drops the whole run
        // to the per-memory oracle, which steps everything and observes
        // the corruption exactly as the real hardware would.
        let ideal_delivery = plans.iter().all(|plan| {
            plan.delivered.iter().all(|(&value, by_width)| {
                by_width
                    .iter()
                    .all(|(&width, word)| *word == generator.pattern_for_width(plan.background, value, width))
            })
        });
        let bit_parallel = self.kernel == DiagnosisKernel::BitParallel && ideal_delivery;

        PopulationPlan {
            scheme: *self,
            configs: configs.to_vec(),
            schedule,
            plans,
            generator,
            backgrounds,
            trigger,
            bit_parallel,
            cycles,
            pause_ms,
            calibration: CostCalibration::current(),
        }
    }

    /// Broadcasts the patterns an element needs and returns, per logical
    /// write value, the word the SPCs of each distinct IO *width*
    /// present after the broadcast (all SPCs of one width capture
    /// identical bits, so one materialisation per distinct width serves
    /// the whole population and every shard segment of it).
    fn deliver_patterns(
        &self,
        element: &MarchElement,
        background: DataBackground,
        generator: &DataBackgroundGenerator,
        widths: &[usize],
        cycles: &mut u64,
    ) -> BTreeMap<bool, BTreeMap<usize, DataWord>> {
        let mut delivered = BTreeMap::new();
        let mut values: Vec<bool> = Vec::new();
        for op in &element.ops {
            if op.is_write() {
                if let Some(value) = op.value() {
                    if !values.contains(&value) {
                        values.push(value);
                    }
                }
            }
        }
        for value in values {
            let mut bus = PatternDeliveryBus::with_order(widths, self.shift_order);
            let pattern = generator.pattern(background, value);
            *cycles += bus.broadcast(&pattern);
            let mut per_width: BTreeMap<usize, DataWord> = BTreeMap::new();
            for (member, &width) in widths.iter().enumerate() {
                per_width.entry(width).or_insert_with(|| bus.pattern_at(member));
            }
            delivered.insert(value, per_width);
        }
        delivered
    }

    /// Cycle cost of one March element over the population, computed in
    /// closed form: every non-pause operation costs one cycle, and every
    /// read additionally carries the PSC shift window sized for the
    /// widest memory (the controller is designed for the widest e-SRAM,
    /// Sec. 3.1).
    ///
    /// Cycle accounting is deliberately split from behavioural stepping:
    /// the segment loop below only moves data, so its cost no longer
    /// contributes per-operation bookkeeping, and the accounting itself
    /// is exact by construction (it is Eq. (2) factored per element).
    fn element_cycles(element: &MarchElement, n_max: u64, c_max: usize) -> u64 {
        n_max * (element.ops_per_address() as u64 + element.reads_per_address() as u64 * c_max as u64)
    }
}

/// One population segment's replay output: the segment's diagnosis log
/// plus, per record, the global operation sequence number it was
/// observed at (the merge key). Opaque — produced by
/// [`PopulationPlan::run_segment`], consumed by
/// [`PopulationPlan::merge`].
#[derive(Debug)]
pub struct SegmentOutcome {
    sequences: Vec<u64>,
    log: DiagnosisLog,
}

/// The controller's population-global planning for one diagnosis run,
/// built once by [`FastScheme::plan_population`]: the schedule, the
/// per-element serially delivered pattern words, the closed-form
/// Eq. (2) cycle/pause accounting, the kernel decision and the active
/// cost calibration.
///
/// The plan is segment-agnostic: any contiguous slice of the population
/// replays through [`PopulationPlan::run_segment`] (each segment builds
/// its own [`GoldenStore`] view — a member's golden word depends only
/// on the shared write stream and its own geometry), and
/// [`PopulationPlan::merge`] reassembles per-segment outcomes into the
/// exact sequential-order [`DiagnosisResult`] no matter how the
/// population was split. This is what lets the fleet runner interleave
/// segments of *different* populations in one executor run.
#[derive(Debug)]
pub struct PopulationPlan {
    scheme: FastScheme,
    configs: Vec<MemConfig>,
    schedule: MarchSchedule,
    plans: Vec<ElementPlan>,
    generator: DataBackgroundGenerator,
    backgrounds: Vec<DataBackground>,
    trigger: AddressTrigger,
    bit_parallel: bool,
    cycles: u64,
    pause_ms: f64,
    calibration: CostCalibration,
}

impl PopulationPlan {
    /// Number of memories the plan was built for.
    pub fn member_count(&self) -> usize {
        self.configs.len()
    }

    /// Closed-form Eq. (2) diagnosis cycles of the planned run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulated retention-pause time of the planned run.
    pub fn pause_ms(&self) -> f64 {
        self.pause_ms
    }

    /// Calibrated cost estimate for diagnosing member `index`
    /// (diagnosis-domain pricing of the member's IO width). Used by the
    /// executor's cost-weighted partition; influences shard boundaries
    /// only, never results.
    pub fn member_cost(&self, index: usize) -> u64 {
        self.calibration
            .cost(CostDomain::Diagnosis, self.configs[index].width() as u64)
    }

    /// Replays the planned schedule over one contiguous population
    /// segment starting at member `base`, dispatching to the planned
    /// kernel (bit-parallel, or the per-memory oracle when the kernel
    /// choice or a non-ideal delivery demands it).
    ///
    /// # Errors
    ///
    /// Returns an error on memory-model validation failures (which
    /// indicate a bug in the scheme, not in the population).
    ///
    /// # Panics
    ///
    /// Panics if `base + segment.len()` exceeds the planned population
    /// (the segment must come from the member list the plan was built
    /// for).
    pub fn run_segment<M: MemoryPort>(
        &self,
        base: usize,
        memories: &mut [(MemoryId, M)],
    ) -> Result<SegmentOutcome, MemError> {
        // Chaos injection site: unqualified specs fire at every
        // segment; the fleet runner layers its own job-qualified hits
        // on top of this one.
        failpoint::trip("diag.segment", &[("base", base as u64)]);
        let configs = &self.configs[base..base + memories.len()];
        if self.bit_parallel {
            self.run_segment_bitparallel(memories, configs)
        } else {
            self.run_segment_permem(memories, configs)
        }
    }

    /// Reassembles per-segment outcomes (in segment = member order)
    /// into the sequential-order [`DiagnosisResult`]: the global
    /// operation sequence number is the primary key and segment order
    /// breaks ties (per-segment sequences are nondecreasing), so a
    /// stable sort over the segment-ordered concatenation reproduces
    /// the 1-thread walk byte for byte. A single segment (the
    /// sequential path) *is* that walk, so its log passes through
    /// untouched.
    pub fn merge(&self, outcomes: Vec<SegmentOutcome>) -> DiagnosisResult {
        let log = if outcomes.len() == 1 {
            outcomes.into_iter().next().expect("one segment").log
        } else {
            let mut tagged: Vec<(u64, DiagnosisRecord)> = Vec::new();
            for outcome in outcomes {
                tagged.extend(outcome.sequences.into_iter().zip(outcome.log.into_records()));
            }
            tagged.sort_by_key(|&(sequence, _)| sequence);
            let mut log = DiagnosisLog::new();
            log.extend(tagged.into_iter().map(|(_, record)| record));
            log
        };
        DiagnosisResult {
            scheme: DiagnosisScheme::name(&self.scheme).to_string(),
            log,
            cycles: self.cycles,
            pause_ms: self.pause_ms,
            iterations: 1,
            clock_period_ns: self.scheme.clock_period_ns,
        }
    }

    /// Replays the planned schedule over one contiguous population
    /// segment and returns the segment's diagnosis log, each record
    /// tagged with the global operation sequence number it was observed
    /// at (the shard-merge key).
    ///
    /// The segment owns its own [`GoldenStore`] view: a memory's golden
    /// word depends only on the shared write stream and the memory's own
    /// geometry, so a store built from the segment's configs holds
    /// exactly the expectations the whole-population store would hand
    /// these members. Per write the store updates one value-plane bit
    /// per distinct word count; per read the expectation is borrowed
    /// from the per-background pattern matrix — no golden words are
    /// cloned or compared per memory anywhere in this loop.
    fn run_segment_permem<M: MemoryPort>(
        &self,
        memories: &mut [(MemoryId, M)],
        configs: &[MemConfig],
    ) -> Result<SegmentOutcome, MemError> {
        let trigger = self.trigger;
        let mut golden = GoldenStore::new(configs, &self.generator, &self.backgrounds);
        let class_widths: Vec<usize> = golden.class_widths().to_vec();
        let mut pscs: Vec<ParallelToSerialConverter> = configs
            .iter()
            .map(|config| ParallelToSerialConverter::new(config.width()))
            .collect();
        let mut comparator = ComparatorArray::new();
        let mut sequences: Vec<u64> = Vec::new();
        let mut op_seq: u64 = 0;

        for plan in &self.plans {
            let element = &self.schedule.phases()[plan.phase_index].test.elements()[plan.element_index];

            // Retention pauses apply once per element, to every memory.
            if plan.pause_ms > 0 {
                for (_, memory) in memories.iter_mut() {
                    memory.elapse_retention(plan.pause_ms as f64);
                }
            }

            // Materialise the width-keyed delivery for this segment's
            // width classes, once per element.
            let per_class: BTreeMap<bool, Vec<DataWord>> = plan
                .delivered
                .iter()
                .map(|(&value, by_width)| {
                    (
                        value,
                        class_widths.iter().map(|width| by_width[width].clone()).collect(),
                    )
                })
                .collect();

            let addresses: Vec<Address> = match element.order {
                AddressOrder::Ascending | AddressOrder::Either => trigger.ascending().collect(),
                AddressOrder::Descending => trigger.descending().collect(),
            };

            for global in addresses {
                for op in &element.ops {
                    // Every worker advances the sequence identically
                    // (the schedule walk is segment-independent), so
                    // equal sequence numbers across segments mean "the
                    // same population-wide operation".
                    op_seq += 1;
                    match op {
                        MarchOp::Pause(_) => {}
                        MarchOp::Write(value) | MarchOp::NwrcWrite(value) => {
                            let nwrc = op.is_nwrc();
                            // NWRC writes succeed on good cells, so the
                            // expectation matches a normal write.
                            golden.record_write(plan.phase_index, global, *value);
                            let words = &per_class[value];
                            for (index, (_, memory)) in memories.iter_mut().enumerate() {
                                let local = trigger.local_address(global, golden.member_words(index));
                                let data = &words[golden.member_width_class(index)];
                                if nwrc {
                                    memory.write_nwrc(local, data)?;
                                } else {
                                    memory.write(local, data)?;
                                }
                            }
                        }
                        MarchOp::Read(_) => {
                            for (index, (id, memory)) in memories.iter_mut().enumerate() {
                                let local = trigger.local_address(global, golden.member_words(index));
                                let observed = memory.read(local)?;
                                // Capture into the PSC and shift the
                                // response back to the controller while
                                // the memory idles.
                                let (received, _) = pscs[index].serialize_word(&observed);
                                let expected = golden.expected_at(index, local);
                                let failing = comparator.compare(
                                    *id,
                                    local,
                                    plan.background,
                                    &plan.label,
                                    expected,
                                    &received,
                                );
                                if !failing.is_empty() {
                                    sequences.push(op_seq);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(SegmentOutcome {
            sequences,
            log: comparator.into_log(),
        })
    }

    /// Replays the planned schedule over one contiguous population
    /// segment through the bit-parallel kernel: instead of stepping
    /// every operation of every memory through its SPC/PSC pair, only
    /// the sparse set of (memory, row) pairs whose behaviour can
    /// deviate from the golden expectation is stepped at all.
    ///
    /// Soundness rests on three facts, each declared by the memory
    /// itself through [`sram_model::AccessProfile`]:
    ///
    /// * With ideal delivery (checked by the caller; otherwise the
    ///   per-memory oracle runs), the word a fault-free pristine row
    ///   observes is exactly the golden expectation — equal limb
    ///   planes by construction, since both sides are the same pattern
    ///   word of the phase that last wrote the row. Skipped reads are
    ///   therefore guaranteed matches and skipped writes store exactly
    ///   what the golden model already tracks.
    /// * Deviation is row-confined for every overlay fault class except
    ///   stuck-open (which echoes the sense amplifier across rows) and
    ///   decoder faults (which remap rows); those memories report
    ///   [`sram_model::AccessProfile::Opaque`] and are stepped densely
    ///   — but through [`MemoryPort::read_expect`], which fuses the
    ///   read, the (lossless) PSC shift-back and the comparison into
    ///   one limb pass. Coupling aggressor rows are part of the stepped
    ///   set, so victim-driving write transitions replay exactly.
    /// * The global operation sequence counter advances identically to
    ///   the per-memory walk (the schedule walk is population-global),
    ///   and within one operation members are visited in ascending
    ///   index order — so mismatch records carry identical sequence
    ///   numbers in identical order, and sharded logs stay
    ///   byte-identical to the oracle's.
    ///
    /// Cycle accounting never enters this function: Eq. (2) is computed
    /// in closed form during planning, so skipping behavioural steps
    /// cannot change it.
    fn run_segment_bitparallel<M: MemoryPort>(
        &self,
        memories: &mut [(MemoryId, M)],
        configs: &[MemConfig],
    ) -> Result<SegmentOutcome, MemError> {
        let trigger = self.trigger;
        let mut golden = GoldenStore::new(configs, &self.generator, &self.backgrounds);
        let class_widths: Vec<usize> = golden.class_widths().to_vec();
        let mut comparator = ComparatorArray::new();
        let mut sequences: Vec<u64> = Vec::new();
        let mut op_seq: u64 = 0;

        // Classify once per segment: faults are installed before diagnosis
        // and the stepped rows of a row-local member are a static
        // superset of where mismatches can appear (prior mismatches
        // happen *at* faulted rows, and every stepped row is replayed
        // in full, so no dynamic re-classification is needed).
        let profiles: Vec<_> = memories.iter().map(|(_, m)| m.access_profile()).collect();
        let member_words: Vec<u64> = (0..memories.len()).map(|m| golden.member_words(m)).collect();
        let steps = StepIndex::new(&profiles, &member_words, trigger.max_words());

        for plan in &self.plans {
            let element = &self.schedule.phases()[plan.phase_index].test.elements()[plan.element_index];

            // Retention pauses reach every stepped memory; a skipped
            // (pristine) memory holds no retention-faulted cells, so
            // elapsing its clock would be a behavioural no-op anyway.
            if plan.pause_ms > 0 {
                for (index, (_, memory)) in memories.iter_mut().enumerate() {
                    if steps.is_stepped(index) {
                        memory.elapse_retention(plan.pause_ms as f64);
                    }
                }
            }

            let per_class: BTreeMap<bool, Vec<DataWord>> = plan
                .delivered
                .iter()
                .map(|(&value, by_width)| {
                    (
                        value,
                        class_widths.iter().map(|width| by_width[width].clone()).collect(),
                    )
                })
                .collect();

            let addresses: Vec<Address> = match element.order {
                AddressOrder::Ascending | AddressOrder::Either => trigger.ascending().collect(),
                AddressOrder::Descending => trigger.descending().collect(),
            };

            for global in addresses {
                let active = steps.members_at(global);
                for op in &element.ops {
                    op_seq += 1;
                    match op {
                        MarchOp::Pause(_) => {}
                        MarchOp::Write(value) | MarchOp::NwrcWrite(value) => {
                            let nwrc = op.is_nwrc();
                            // The golden model tracks the *whole* write
                            // stream — skipped members' expectations
                            // must stay current for later stepped rows
                            // of the same value class.
                            golden.record_write(plan.phase_index, global, *value);
                            if active.is_empty() {
                                continue;
                            }
                            let words = &per_class[value];
                            for &member in active {
                                let member = member as usize;
                                let local = trigger.local_address(global, golden.member_words(member));
                                let data = &words[golden.member_width_class(member)];
                                let memory = &mut memories[member].1;
                                if nwrc {
                                    memory.write_nwrc(local, data)?;
                                } else {
                                    memory.write(local, data)?;
                                }
                            }
                        }
                        MarchOp::Read(_) => {
                            for &member in active {
                                let member = member as usize;
                                let (local, expected) = golden.expected_at_global(member, global);
                                // One fused limb pass replaces read +
                                // PSC shift-back + compare: the PSC
                                // serialisation is lossless (capture
                                // then reconstruct), so the word the
                                // comparator would see *is* the word
                                // the port observed.
                                if let Some(observed) = memories[member].1.read_expect(local, expected)? {
                                    let failing = comparator.compare(
                                        memories[member].0,
                                        local,
                                        plan.background,
                                        &plan.label,
                                        expected,
                                        &observed,
                                    );
                                    debug_assert!(!failing.is_empty(), "read_expect reported a match");
                                    sequences.push(op_seq);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(SegmentOutcome {
            sequences,
            log: comparator.into_log(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_models::{FaultList, MemoryFault};
    use sram_model::cell::CellCoord;
    use sram_model::{MemConfig, MemoryId};

    fn population() -> Vec<MemoryUnderDiagnosis> {
        vec![
            MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(32, 8).unwrap()),
            MemoryUnderDiagnosis::pristine(MemoryId::new(1), MemConfig::new(16, 4).unwrap()),
        ]
    }

    fn with_fault(
        mut population: Vec<MemoryUnderDiagnosis>,
        memory: usize,
        fault: MemoryFault,
    ) -> Vec<MemoryUnderDiagnosis> {
        fault.inject_into(&mut population[memory].sram).unwrap();
        let mut list = FaultList::new();
        list.push(fault);
        population[memory].injected = list;
        population
    }

    #[test]
    fn clean_population_diagnoses_clean() {
        let mut memories = population();
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        assert!(result.is_clean());
        assert_eq!(result.iterations, 1);
        assert!(result.cycles > 0);
        assert_eq!(result.pause_ms, 0.0);
    }

    #[test]
    fn stuck_at_fault_is_located_in_the_right_memory() {
        let site = CellCoord::new(Address::new(5), 2);
        let mut memories = with_fault(population(), 1, MemoryFault::stuck_at_1(site));
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        let sites = result.sites(MemoryId::new(1));
        assert_eq!(sites.len(), 1);
        let located = sites.iter().next().unwrap();
        assert_eq!(located.address, Address::new(5));
        assert_eq!(located.bit, 2);
        assert!(result.sites(MemoryId::new(0)).is_empty());
    }

    #[test]
    fn faults_in_several_memories_are_located_in_one_pass() {
        let mut memories = population();
        MemoryFault::stuck_at_0(CellCoord::new(Address::new(3), 7))
            .inject_into(&mut memories[0].sram)
            .unwrap();
        MemoryFault::transition_up(CellCoord::new(Address::new(9), 1))
            .inject_into(&mut memories[1].sram)
            .unwrap();
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        assert_eq!(result.iterations, 1);
        assert!(!result.sites(MemoryId::new(0)).is_empty());
        assert!(!result.sites(MemoryId::new(1)).is_empty());
    }

    #[test]
    fn drf_is_located_with_nwrtm_and_missed_without() {
        let site = CellCoord::new(Address::new(7), 3);
        let fault = MemoryFault::data_retention_a(site);

        let mut with_nwrtm = with_fault(population(), 0, fault);
        let nwrtm_result = FastScheme::new(10.0).diagnose(&mut with_nwrtm).unwrap();
        assert_eq!(nwrtm_result.sites(MemoryId::new(0)).len(), 1);
        assert_eq!(nwrtm_result.pause_ms, 0.0, "NWRTM must not pause");

        let mut without = with_fault(population(), 0, fault);
        let plain_result = FastScheme::new(10.0)
            .with_drf_mode(DrfMode::None)
            .diagnose(&mut without)
            .unwrap();
        assert!(plain_result.is_clean(), "without NWRTM the DRF must escape");
    }

    #[test]
    fn retention_pause_mode_also_finds_drf_but_costs_200ms() {
        let site = CellCoord::new(Address::new(2), 0);
        let mut memories = with_fault(population(), 0, MemoryFault::data_retention_a(site));
        let result = FastScheme::new(10.0)
            .with_drf_mode(DrfMode::RetentionPause(100))
            .diagnose(&mut memories)
            .unwrap();
        assert_eq!(result.sites(MemoryId::new(0)).len(), 1);
        assert_eq!(result.pause_ms, 200.0);
        assert!(result.time_ms() > 200.0);
    }

    #[test]
    fn cycle_count_matches_eq2_for_a_single_memory_population() {
        // Eq. (2) with n = 32, c = 8: March CW without DRF diagnosis costs
        // (5n + 5c + 5n(c+1)) + (3n + 3c + 2n(c+1)) * ceil(log2 c) cycles.
        let n: u64 = 32;
        let c: u64 = 8;
        let mut memories = vec![MemoryUnderDiagnosis::pristine(
            MemoryId::new(0),
            MemConfig::new(n, c as usize).unwrap(),
        )];
        let result = FastScheme::new(10.0)
            .with_drf_mode(DrfMode::None)
            .diagnose(&mut memories)
            .unwrap();
        let expected = (5 * n + 5 * c + 5 * n * (c + 1)) + (3 * n + 3 * c + 2 * n * (c + 1)) * 3;
        assert_eq!(result.cycles, expected);
    }

    #[test]
    fn wrapped_smaller_memories_do_not_raise_false_failures() {
        // A fault-free small memory sharing the address trigger with a
        // larger one must not produce mismatches despite wrap-around
        // read-modify-write redundancy.
        let mut memories = vec![
            MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(64, 6).unwrap()),
            MemoryUnderDiagnosis::pristine(MemoryId::new(1), MemConfig::new(8, 3).unwrap()),
        ];
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        assert!(result.is_clean());
    }

    #[test]
    fn lsb_first_delivery_misbehaves_for_heterogeneous_widths() {
        // The Sec. 3.2 ablation: with LSB-first delivery the narrower
        // memory receives corrupted backgrounds, so the controller's
        // expectations no longer hold.
        let mut memories = population();
        let result = FastScheme::new(10.0)
            .with_shift_order(ShiftOrder::LsbFirst)
            .with_drf_mode(DrfMode::None)
            .diagnose(&mut memories)
            .unwrap();
        assert!(
            !result.sites(MemoryId::new(1)).is_empty() || !result.is_clean(),
            "LSB-first delivery must corrupt diagnosis of the narrower memory"
        );
    }

    #[test]
    fn march_c_minus_ablation_runs_fewer_cycles_than_march_cw() {
        let mut a = population();
        let cw = FastScheme::new(10.0)
            .with_drf_mode(DrfMode::None)
            .diagnose(&mut a)
            .unwrap();
        let mut b = population();
        let cm = FastScheme::new(10.0)
            .with_drf_mode(DrfMode::None)
            .with_march_c_minus()
            .diagnose(&mut b)
            .unwrap();
        assert!(cm.cycles < cw.cycles);
    }

    #[test]
    #[should_panic(expected = "clock period")]
    fn non_positive_clock_period_panics() {
        let _ = FastScheme::new(0.0);
    }

    #[test]
    fn drf_mode_display() {
        assert_eq!(DrfMode::Nwrtm.to_string(), "NWRTM");
        assert_eq!(DrfMode::None.to_string(), "no DRF diagnosis");
        assert_eq!(DrfMode::RetentionPause(100).to_string(), "retention pause 100 ms");
        assert_eq!(DrfMode::default(), DrfMode::Nwrtm);
    }
}
