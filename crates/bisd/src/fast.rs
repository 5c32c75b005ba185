//! The proposed fast diagnosis scheme (Fig. 3): SPC/PSC converters,
//! March CW and NWRTM-based data-retention diagnosis.

use crate::components::{AddressTrigger, ComparatorArray, DataBackgroundGenerator};
use crate::kernel::DiagnosisKernel;
use crate::log::DiagnosisLog;
use crate::population::GoldenStore;
use crate::result::DiagnosisResult;
use crate::scheme::{DiagnosisScheme, MemoryUnderDiagnosis};
use esram_exec::{failpoint, ShardPlan};
use march::{algorithms, DataBackground, MarchElement, MarchOp, MarchSchedule};
use serial::{ParallelToSerialConverter, PatternDeliveryBus, ShiftOrder};
use sram_model::cell::CellCoord;
use sram_model::{
    Address, CellFault, DataWord, LanePlanes, MemConfig, MemError, MemoryId, MemoryPort, RetentionModel, Sram,
};
use std::fmt;

/// Per-member diagnosis cost, in picoseconds: the 1-thread ledger's
/// per-memory diagnosis mean (512 × 100) minus the width's share. It
/// dominates the per-bit term: a 100-bit member costs far less than 100
/// 1-bit ones.
const MEMBER_FIXED_PS: u64 = 6_821_638;
/// Diagnosis cost per IO-width bit, in picoseconds: the ledger's
/// 100-bit PSC serialisation divided by its width.
const MEMBER_BIT_PS: u64 = 9_170;

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
/// any memory is touched: its position in the schedule, its background,
/// the per-element retention pause and the serially delivered
/// pattern words, indexed by logical write value and width class (all
/// SPCs of one IO width capture identical bits, so one word per class
/// serves every member of the population and every shard segment).
#[derive(Debug)]
struct ElementPlan {
    phase_index: usize,
    element_index: usize,
    background: DataBackground,
    pause_ms: u64,
    /// `delivered[value][class]` — the word the SPCs of width class
    /// `class` present after the broadcast for logical `value`; empty
    /// for a value the element never writes.
    delivered: [Vec<DataWord>; 2],
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
    /// The population is split by the deterministic executor into
    /// contiguous per-worker segments weighted by
    /// [`PopulationPlan::member_cost`]; memories are independent given
    /// the shared write stream.
    /// Each segment replays the planned schedule with its own
    /// comparator array (and, under the per-memory oracle, its own
    /// [`GoldenStore`] view and PSCs), and the per-segment sites are
    /// concatenated in member order — the result is byte-identical to
    /// the sequential (1-thread) walk for every plan, which the
    /// population-shard determinism suite asserts.
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
    /// back into the whole population's result
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
        let mut class_widths: Vec<usize> = Vec::new();
        let width_classes: Vec<usize> = configs
            .iter()
            .map(|config| {
                let width = config.width();
                class_widths.iter().position(|&w| w == width).unwrap_or_else(|| {
                    class_widths.push(width);
                    class_widths.len() - 1
                })
            })
            .collect();
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
                pause_ms += element.pause_ms() as f64;
                let delivered =
                    self.deliver_patterns(element, phase.background, &generator, &class_widths, &mut cycles);
                cycles += Self::element_cycles(element, n_max, c_max);
                plans.push(ElementPlan {
                    phase_index,
                    element_index,
                    background: phase.background,
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
            [false, true].into_iter().all(|value| {
                plan.delivered[usize::from(value)]
                    .iter()
                    .zip(&class_widths)
                    .all(|(word, &width)| *word == generator.pattern_for_width(plan.background, value, width))
            })
        });
        let bit_parallel = self.kernel == DiagnosisKernel::BitParallel && ideal_delivery;

        PopulationPlan {
            scheme: *self,
            configs: configs.to_vec(),
            width_classes,
            schedule,
            plans,
            generator,
            backgrounds,
            trigger,
            bit_parallel,
            cycles,
            pause_ms,
        }
    }

    /// Broadcasts the patterns an element needs and returns, per logical
    /// write value, the word the SPCs of each width class present after
    /// the broadcast. All SPCs of one width capture identical bits, so
    /// the bus carries one SPC per distinct width: the broadcast still
    /// lasts as many cycles as the widest memory has bits.
    fn deliver_patterns(
        &self,
        element: &MarchElement,
        background: DataBackground,
        generator: &DataBackgroundGenerator,
        class_widths: &[usize],
        cycles: &mut u64,
    ) -> [Vec<DataWord>; 2] {
        let mut delivered = [Vec::new(), Vec::new()];
        for op in &element.ops {
            if let MarchOp::Write(value) | MarchOp::NwrcWrite(value) = *op {
                let words = &mut delivered[usize::from(value)];
                if words.is_empty() {
                    let mut bus = PatternDeliveryBus::with_order(class_widths, self.shift_order);
                    *cycles += bus.broadcast(&generator.pattern(background, value));
                    *words = (0..class_widths.len())
                        .map(|class| bus.pattern_at(class))
                        .collect();
                }
            }
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

/// One population segment's replay output: the distinct sites its
/// members located, sorted and deduplicated per member and concatenated
/// in member order, and its number of mismatching reads. Opaque —
/// produced by [`PopulationPlan::run_segment`], consumed by
/// [`PopulationPlan::merge`].
#[derive(Debug)]
pub struct SegmentOutcome {
    log: DiagnosisLog,
}

/// One faulty row replayed in a lane instead of being stepped.
#[derive(Debug)]
struct LaneRow {
    /// Segment member index.
    member: u32,
    /// Local row within the member.
    row: u64,
    faults: Vec<(usize, CellFault)>,
}

/// Lane rows that replay together: one geometry, one retention model
/// and one visit count per element (a wrapped member's local row `r`
/// is visited at every global address `g < n_max` with
/// `g mod words = r`).
#[derive(Debug)]
struct LaneGroup {
    words: u64,
    width: usize,
    retention: RetentionModel,
    visits: u64,
    rows: Vec<LaneRow>,
}

/// The controller's population-global planning for one diagnosis run,
/// built once by [`FastScheme::plan_population`]: the schedule, the
/// per-element serially delivered pattern words, the closed-form
/// Eq. (2) cycle/pause accounting and the kernel decision.
///
/// The plan is segment-agnostic: any contiguous slice of the population
/// replays through [`PopulationPlan::run_segment`] (a member's golden
/// word depends only on the shared write stream and its own geometry,
/// and the delivered words are resolved once per plan, per width
/// class), and [`PopulationPlan::merge`] concatenates per-segment
/// outcomes into the population's [`DiagnosisResult`], identical no
/// matter how the population was split. This is what lets the fleet
/// runner interleave segments of *different* populations in one
/// executor run, and share one plan among the jobs of a sweep.
///
/// Under the bit-parallel kernel a segment walks each member over only
/// the global addresses that alias its rows that can deviate, and
/// replays most of the faulty rows of its row-local members 64 at a
/// time in the lanes of a [`LanePlanes`]. The per-memory oracle steps
/// every member at every address against a [`GoldenStore`]. Either
/// kernel's segment registers each member's failing `(address, bit)`
/// sites and hands them over sorted and deduplicated.
#[derive(Debug)]
pub struct PopulationPlan {
    scheme: FastScheme,
    configs: Vec<MemConfig>,
    /// Per member: its width class, the index into every
    /// [`ElementPlan::delivered`] word list.
    width_classes: Vec<usize>,
    schedule: MarchSchedule,
    plans: Vec<ElementPlan>,
    generator: DataBackgroundGenerator,
    backgrounds: Vec<DataBackground>,
    trigger: AddressTrigger,
    bit_parallel: bool,
    cycles: u64,
    pause_ms: f64,
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

    /// Cost estimate for diagnosing member `index`, in picoseconds: a
    /// fixed per-member cost plus a cost per bit of the member's IO
    /// width. Used by the executor's cost-weighted partition; influences
    /// shard boundaries only, never results.
    pub fn member_cost(&self, index: usize) -> u64 {
        MEMBER_FIXED_PS + MEMBER_BIT_PS * self.configs[index].width() as u64
    }

    /// Replays the planned schedule over one contiguous population
    /// segment starting at member `base`, dispatching to the planned
    /// kernel (bit-parallel with lane replay, or the per-memory oracle
    /// when the kernel choice or a non-ideal delivery demands it). Both
    /// leave the segment's memories in the same state.
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
        let members = base..base + memories.len();
        let (configs, classes) = (&self.configs[members.clone()], &self.width_classes[members]);
        if self.bit_parallel {
            self.run_segment_bitparallel(memories, configs, classes)
        } else {
            self.run_segment_permem(memories, configs, classes)
        }
    }

    /// Concatenates per-segment outcomes, given in member order, into
    /// the population's [`DiagnosisResult`]. Segments are contiguous
    /// member ranges and each hands over its sites per member in order,
    /// so the concatenation is already ascending whenever member ids
    /// ascend; only a population whose ids do not is sorted.
    pub fn merge(&self, outcomes: Vec<SegmentOutcome>) -> DiagnosisResult {
        DiagnosisResult {
            log: DiagnosisLog::concat(outcomes.into_iter().map(|outcome| outcome.log)),
            cycles: self.cycles,
            pause_ms: self.pause_ms,
            iterations: 1,
            clock_period_ns: self.scheme.clock_period_ns,
        }
    }

    /// The March element `plan` was planned from.
    fn element(&self, plan: &ElementPlan) -> &MarchElement {
        &self.schedule.phases()[plan.phase_index].test.elements()[plan.element_index]
    }

    /// Replays the planned schedule over one contiguous population
    /// segment, stepping every operation of every member, and returns
    /// the sites the segment's comparator array registered.
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
        classes: &[usize],
    ) -> Result<SegmentOutcome, MemError> {
        let trigger = self.trigger;
        let mut golden = GoldenStore::new(configs, &self.generator, &self.backgrounds);
        let mut pscs: Vec<ParallelToSerialConverter> = configs
            .iter()
            .map(|config| ParallelToSerialConverter::new(config.width()))
            .collect();
        let mut comparator = ComparatorArray::new(memories.iter().map(|(id, _)| *id));

        for plan in &self.plans {
            let element = self.element(plan);

            // Retention pauses apply once per element, to every memory.
            if plan.pause_ms > 0 {
                for (_, memory) in memories.iter_mut() {
                    memory.elapse_retention(plan.pause_ms as f64);
                }
            }

            element.order.sweep(trigger.max_words(), None, |global| {
                for op in &element.ops {
                    match op {
                        MarchOp::Write(value) | MarchOp::NwrcWrite(value) => {
                            let nwrc = op.is_nwrc();
                            // NWRC writes succeed on good cells, so the
                            // expectation matches a normal write.
                            golden.record_write(plan.phase_index, global, *value);
                            let words = &plan.delivered[usize::from(*value)];
                            for (index, (_, memory)) in memories.iter_mut().enumerate() {
                                let local = trigger.local_address(global, golden.member_words(index));
                                let data = &words[classes[index]];
                                if nwrc {
                                    memory.write_nwrc(local, data)?;
                                } else {
                                    memory.write(local, data)?;
                                }
                            }
                        }
                        MarchOp::Read(_) => {
                            for (index, (_, memory)) in memories.iter_mut().enumerate() {
                                let local = trigger.local_address(global, golden.member_words(index));
                                let observed = memory.read(local)?;
                                // Capture into the PSC and shift the
                                // response back to the controller while
                                // the memory idles.
                                let (received, _) = pscs[index].serialize_word(&observed);
                                comparator.compare(index, local, golden.expected_at(index, local), &received);
                            }
                        }
                        // Pauses applied once, before the sweep.
                        _ => {}
                    }
                }
                Ok::<(), MemError>(())
            })?;
        }
        Ok(SegmentOutcome {
            log: comparator.into_log(),
        })
    }

    /// Replays the planned schedule over one contiguous population
    /// segment through the bit-parallel kernel: instead of stepping
    /// every operation of every memory through its SPC/PSC pair, only
    /// the sparse set of (memory, row) pairs whose behaviour can
    /// deviate from the golden expectation is replayed at all, and most
    /// of those 64 rows at a time in the lanes of one [`LanePlanes`].
    ///
    /// A member with stepped rows is walked on its own, as its local
    /// address generator sees the run: for each element, over the
    /// global trigger addresses that alias those rows, in the element's
    /// order. Its expectation at a row is the last word delivered there
    /// (the power-on zero word until the row is written). Members are
    /// independent, so walking them one after another leaves the sites,
    /// the mismatch count and every memory as the lockstep walk would.
    ///
    /// Soundness rests on four facts, each declared by the memory
    /// itself through [`MemoryPort::row_classes`]:
    ///
    /// * With ideal delivery (checked by the caller; otherwise the
    ///   per-memory oracle runs), the word a fault-free pristine row
    ///   observes is exactly the last word delivered to it. Rows in no
    ///   class are therefore skipped: their reads are guaranteed
    ///   matches, and their writes store only what the walk expects.
    /// * The stepped and non-reset rows are stepped, and deviation stays
    ///   inside them: coupling aggressor rows and the rows a decoder
    ///   fault touches are stepped rows, so victim-driving write
    ///   transitions and remapped accesses replay exactly. A memory
    ///   that declines to classify (a stuck-open cell echoes the sense
    ///   amplifier across rows) is stepped at every row — but through
    ///   [`MemoryPort::read_expect`], which fuses the read, the
    ///   (lossless) PSC shift-back and the comparison into one limb
    ///   pass.
    /// * A lane row (single-cell faults only, no coupling or decoder
    ///   fault touching it, reset contents) depends only on the ops
    ///   addressed to it, and every SPC of one width receives the same
    ///   word at every address of an element. So all lane rows of one
    ///   [`LaneGroup`] see one op stream: the schedule's ops, repeated
    ///   once per visit. One replay of that stream serves 64 rows, and
    ///   the last word it wrote is the golden expectation of every lane
    ///   (what [`LanePlanes::read_row`] debug-asserts). Each lane then
    ///   writes its final word back, leaving the memory as the stepped
    ///   walk would.
    /// * Every mismatching read registers its failing `(address, bit)`
    ///   sites with its member's comparator, whether it was stepped or
    ///   replayed in a lane, and the segment's sites are sorted and
    ///   deduplicated per member. Detection order is not kept, so the
    ///   sites and the mismatch count are the per-memory walk's however
    ///   the reads were interleaved.
    ///
    /// Cycle accounting never enters this function: Eq. (2) is computed
    /// in closed form during planning, so skipping behavioural steps
    /// cannot change it.
    fn run_segment_bitparallel<M: MemoryPort>(
        &self,
        memories: &mut [(MemoryId, M)],
        configs: &[MemConfig],
        classes: &[usize],
    ) -> Result<SegmentOutcome, MemError> {
        let trigger = self.trigger;
        let mut comparator = ComparatorArray::new(memories.iter().map(|(id, _)| *id));

        // Classify once per segment: faults are installed before diagnosis
        // and a member's stepped rows are a static superset of where
        // mismatches can appear outside its lane rows (prior mismatches
        // happen *at* faulted rows, and every stepped row is replayed in
        // full, so no dynamic re-classification is needed).
        let (groups, aliases) = self.classify(memories, configs);

        // The stepped walk runs before the lane replays: its pauses reach
        // every overlay cell of a stepped memory, lane rows included, and
        // the lanes' write-back must come after them.
        for (member, (_, memory)) in memories.iter_mut().enumerate() {
            let aliases = &aliases[member];
            if aliases.is_empty() {
                continue;
            }
            let (words, class) = (configs[member].words(), classes[member]);
            let power_on = DataWord::zero(configs[member].width());
            // `expected[row]`: the last word delivered to local `row`.
            let mut expected: Vec<&DataWord> = vec![&power_on; words as usize];
            for plan in &self.plans {
                let element = self.element(plan);
                if plan.pause_ms > 0 {
                    memory.elapse_retention(plan.pause_ms as f64);
                }
                element
                    .order
                    .sweep(trigger.max_words(), Some(aliases), |global| {
                        let local = trigger.local_address(global, words);
                        let word = &mut expected[local.index() as usize];
                        for op in &element.ops {
                            match op {
                                MarchOp::Write(value) | MarchOp::NwrcWrite(value) => {
                                    *word = &plan.delivered[usize::from(*value)][class];
                                    if op.is_nwrc() {
                                        memory.write_nwrc(local, word)?;
                                    } else {
                                        memory.write(local, word)?;
                                    }
                                }
                                MarchOp::Read(_) => {
                                    // One fused limb pass replaces read +
                                    // PSC shift-back + compare: the PSC
                                    // serialisation is lossless (capture
                                    // then reconstruct), so the word the
                                    // comparator would see *is* the word
                                    // the port observed.
                                    if let Some(observed) = memory.read_expect(local, word)? {
                                        let failing = comparator.compare(member, local, word, &observed);
                                        debug_assert!(!failing.is_empty(), "read_expect reported a match");
                                    }
                                }
                                // Pauses applied once, before the sweep.
                                _ => {}
                            }
                        }
                        Ok::<(), MemError>(())
                    })?;
            }
        }

        for group in &groups {
            let class = classes[group.rows[0].member as usize];
            let mut lanes = LanePlanes::with_retention(MemConfig::new(1, group.width)?, group.retention);
            for batch in group.rows.chunks(64) {
                lanes.reset();
                for (lane, row) in batch.iter().enumerate() {
                    for (bit, fault) in &row.faults {
                        lanes.add_lane_fault(lane, CellCoord::new(Address::new(0), *bit), fault);
                    }
                }
                lanes.freeze();
                self.replay_lanes(&mut lanes, group, batch, class, &mut comparator);
                for (lane, row) in batch.iter().enumerate() {
                    let word = lanes.lane_word(lane, Address::new(0));
                    memories[row.member as usize]
                        .1
                        .write(Address::new(row.row), &word)?;
                }
            }
        }
        Ok(SegmentOutcome {
            log: comparator.into_log(),
        })
    }

    /// Classifies the segment's members once: collects their lane rows
    /// into replay groups and returns, per member, the global addresses
    /// that alias its stepped and non-reset rows, or every row when it
    /// declines to classify itself.
    fn classify<M: MemoryPort>(
        &self,
        memories: &[(MemoryId, M)],
        configs: &[MemConfig],
    ) -> (Vec<LaneGroup>, Vec<Vec<Address>>) {
        let n_max = self.trigger.max_words();
        let mut groups: Vec<LaneGroup> = Vec::new();
        let mut stepped = Vec::with_capacity(memories.len());
        for (member, ((_, memory), config)) in memories.iter().zip(configs).enumerate() {
            let (words, width) = (config.words(), config.width());
            let Some(classes) = memory.row_classes() else {
                stepped.push(aliases(None, words, n_max));
                continue;
            };
            stepped.push(aliases(
                Some([classes.stepped, classes.non_reset].concat()),
                words,
                n_max,
            ));
            for (address, faults) in classes.lane {
                let row = address.index();
                let visits = (n_max - 1 - row) / words + 1;
                let position = groups.iter().position(|group| {
                    (group.words, group.width, group.retention, group.visits)
                        == (words, width, classes.retention, visits)
                });
                let index = position.unwrap_or_else(|| {
                    groups.push(LaneGroup {
                        words,
                        width,
                        retention: classes.retention,
                        visits,
                        rows: Vec::new(),
                    });
                    groups.len() - 1
                });
                groups[index].rows.push(LaneRow {
                    member: member as u32,
                    row,
                    faults,
                });
            }
        }
        (groups, stepped)
    }

    /// Replays the whole schedule once over one frozen lane batch of
    /// `group` (lane `i` is `batch[i]`, at lane row 0) and registers each
    /// lane's failing cells with its member's comparator. `class` is the
    /// group's width class.
    fn replay_lanes(
        &self,
        lanes: &mut LanePlanes,
        group: &LaneGroup,
        batch: &[LaneRow],
        class: usize,
        comparator: &mut ComparatorArray,
    ) {
        let lane_row = Address::new(0);
        let power_on = DataWord::zero(group.width);
        // The broadcast plane holds the last word written, which is the
        // golden expectation of every lane.
        let mut expected = &power_on;
        let mut deviations: Vec<(usize, u64)> = Vec::new();
        // `failing[bit]`: the lanes whose `bit` deviated on some read.
        let mut failing = vec![0u64; group.width];
        for plan in &self.plans {
            let element = self.element(plan);
            if plan.pause_ms > 0 {
                lanes.elapse_retention(plan.pause_ms as f64);
            }
            for _ in 0..group.visits {
                for op in &element.ops {
                    match op {
                        MarchOp::Write(value) | MarchOp::NwrcWrite(value) => {
                            expected = &plan.delivered[usize::from(*value)][class];
                            lanes.write_row(lane_row, expected, op.is_nwrc());
                        }
                        MarchOp::Read(_) => {
                            deviations.clear();
                            let pending = lanes.read_row(lane_row, expected, &mut deviations);
                            comparator.count_mismatches(pending.count_ones() as usize);
                            for &(bit, mask) in &deviations {
                                failing[bit] |= mask;
                            }
                        }
                        // Pauses applied once, before the visits.
                        _ => {}
                    }
                }
            }
        }
        for (bit, mut mask) in failing.into_iter().enumerate() {
            while mask != 0 {
                let row = &batch[mask.trailing_zeros() as usize];
                mask &= mask - 1;
                comparator.register(row.member as usize, Address::new(row.row), bit);
            }
        }
    }
}

/// The global trigger addresses below `n_max` that alias a
/// `words`-word member's `rows`, ascending: local address generators
/// wrap, so row `r` is visited at `r`, `r + words`, …. `None` (a member
/// that declines to classify its rows) stands for every row, and so
/// aliases every global address.
fn aliases(rows: Option<Vec<Address>>, words: u64, n_max: u64) -> Vec<Address> {
    let Some(mut rows) = rows else {
        return (0..n_max).map(Address::new).collect();
    };
    rows.sort_unstable();
    rows.dedup();
    debug_assert!(
        rows.last().is_none_or(|row| row.index() < words),
        "row outside the member"
    );
    (0..n_max)
        .step_by(words as usize)
        .flat_map(|base| rows.iter().map(move |row| base + row.index()))
        .take_while(|&global| global < n_max)
        .map(Address::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_models::{FaultList, MemoryFault};
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

    #[test]
    fn aliases_follow_each_row_through_the_wrap_in_global_order() {
        let globals = |rows, words, n_max| -> Vec<u64> {
            aliases(rows, words, n_max)
                .into_iter()
                .map(Address::index)
                .collect()
        };
        let rows = |list: &[u64]| Some(list.iter().copied().map(Address::new).collect());
        assert_eq!(globals(rows(&[3]), 8, 32), [3, 11, 19, 27]);
        // Unsorted rows still alias in ascending global order, and the
        // last wrap stops short of `n_max`.
        assert_eq!(globals(rows(&[3, 1]), 4, 10), [1, 3, 5, 7, 9]);
        // A member that declines to classify is walked everywhere.
        assert_eq!(globals(None, 8, 32), (0..32).collect::<Vec<_>>());
        assert!(globals(rows(&[]), 8, 32).is_empty());
    }

    fn width_plan() -> PopulationPlan {
        let configs: Vec<MemConfig> = [1, 16, 100]
            .iter()
            .map(|&width| MemConfig::new(32, width).unwrap())
            .collect();
        FastScheme::new(10.0).plan_population(&configs)
    }

    #[test]
    fn member_cost_pins_the_measured_weights() {
        // Shard boundaries follow these prices; a changed constant moves
        // them and must be a deliberate, visible edit.
        let plan = width_plan();
        let costs: Vec<u64> = (0..plan.member_count())
            .map(|index| plan.member_cost(index))
            .collect();
        assert_eq!(costs, [6_830_808, 6_968_358, 7_738_638]);
    }

    #[test]
    fn member_cost_is_dominated_by_its_fixed_term() {
        // A 100-bit member is nowhere near 100 times a 1-bit one.
        let plan = width_plan();
        assert!(plan.member_cost(2) < 100 * plan.member_cost(0));
    }
}
