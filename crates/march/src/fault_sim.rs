//! RAMSES-style serial fault simulation of March programmes.
//!
//! For every fault instance of a universe the simulator injects the
//! single fault into a memory, runs the March programme and classifies
//! the outcome: *detected* (any read mismatch), and *located* (the
//! failing sites include the faulty cell — or the faulty address for
//! decoder faults — which is what a diagnosis scheme needs in order to
//! drive repair). This reproduces the coverage argument of the paper's
//! Sec. 4.1: March CW matches the baseline's coverage on the classical
//! fault classes, and only the NWRTM-merged variant reaches
//! data-retention faults.
//!
//! Whole-universe simulation is *batched*, *pruned*, *lane-parallel*
//! and *sharded*:
//!
//! * **Batched** — one reusable packed memory is `reset` and
//!   re-injected per fault, the schedule's pattern words are built once
//!   per universe ([`SchedulePatterns`]) and borrowed by every run;
//!   there is no per-fault `Sram` construction, programme clone or
//!   pattern rebuild on the hot path.
//! * **Pruned** — a fault confined to a single row (stuck-at,
//!   transition, retention, read-disturb) only needs that row swept:
//!   if a golden fault-free run of the schedule passes, reads of every
//!   other row match by construction, so the simulator restricts the
//!   address sweeps to the faulty row ([`MarchRunner::run_schedule_rows`]).
//!   An outcome keeps only the distinct failing cells, so the pruned
//!   outcome equals the full run's as it stands. A coupling fault
//!   involves exactly two rows (victim and aggressor), so it takes an
//!   order-preserving two-row restricted sweep
//!   ([`MarchRunner::run_schedule_rows`]) instead of the full fallback,
//!   and so does an address-decoder fault, over its corrupted address
//!   plus the row it drags in. Every fault's rows come from one
//!   definition, [`MemoryFault::deviation_rows`].
//!   Stuck-open faults (whose reads replay the sense-amp history left
//!   by other rows) and schedules whose golden run fails take the full
//!   sweep, so outcomes are observationally identical either way —
//!   which the one-off [`FaultSimulator::simulate_fault_schedule`]
//!   oracle and the sharded-determinism suite assert.
//! * **Lane-parallel** — under the default [`FaultSimKernel::Lanes`]
//!   kernel, up to 64 compatible faults share one schedule replay: each
//!   fault becomes a bit lane of a [`LanePlanes`] memory and the
//!   schedule is replayed once over the union of the lanes' pruned
//!   rows, with a nonzero XOR limb flagging exactly the deviating
//!   lanes, whose failing cells go straight into per-lane site lists.
//!   Single-row cell classes chunk freely; coupling faults batch
//!   only with pairwise-disjoint victim+aggressor row sets (so every
//!   aggressor stays broadcast); stuck-open, decoder and failing-golden
//!   faults fall back to the per-fault path, which
//!   [`FaultSimKernel::PerMemory`] retains wholesale as the equivalence
//!   oracle ([`FaultSimulator::with_kernel`]). Outcomes are unpacked
//!   back into exact universe order, so the kernels are byte-identical — the
//!   `lane_kernel_equivalence` suite proves it per fault class.
//! * **Sharded** — the universe runs on the deterministic executor
//!   ([`ShardPlan::map_slots`]): the shardable items are the lane
//!   batches plus the per-fault singles (or every fault alone under
//!   the per-memory kernel), one reusable `Sram` per worker, a
//!   per-item cost model (rows swept: 1 for pruned single-row
//!   classes, 1 or 2 for coupling and decoder faults, the union row
//!   count for a lane batch, the whole address space for stuck-open)
//!   steering cost-weighted chunking, and outcomes merged back into
//!   exact universe order at every worker count; per-shard
//!   [`CoverageReport`]s fold associatively.

use crate::background::DataBackground;
use crate::coverage::CoverageReport;
use crate::engine::MarchRunner;
use crate::kernel::FaultSimKernel;
use crate::ops::{AddressOrder, MarchOp, MarchTest};
use crate::schedule::{MarchSchedule, SchedulePatterns, SchedulePhase};
use esram_exec::{CostCalibration, CostDomain, ShardPlan};
use fault_models::{FaultList, MemoryFault};
use sram_model::cell::CellCoord;
use sram_model::{Address, LanePlanes, MemConfig, Sram};

/// Outcome of simulating one fault instance against one programme.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimOutcome {
    /// The simulated fault.
    pub fault: MemoryFault,
    /// True if the programme produced at least one read mismatch.
    pub detected: bool,
    /// True if `sites` includes the fault's own cell, or for a decoder
    /// fault its address.
    pub located: bool,
    /// The distinct `(address, bit)` cells some read found failing,
    /// ascending; empty exactly when the fault escaped detection.
    pub sites: Vec<CellCoord>,
}

/// Fault simulator bound to one memory geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSimulator {
    config: MemConfig,
    kernel: FaultSimKernel,
}

/// One ≤64-lane batch of compatible faults sharing a schedule replay:
/// the universe indices packed into the lanes (lane *i* simulates
/// `lanes[i]`) and the ascending union of their pruned row sets.
#[derive(Debug, Clone)]
struct LaneBatch {
    lanes: Vec<usize>,
    rows: Vec<Address>,
}

/// One shardable work item of a lane-kernel universe run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneWork {
    /// A lane batch (index into [`LanePlan::batches`]).
    Batch(usize),
    /// A per-fault fallback (universe index).
    Single(usize),
}

/// The lane batcher's output: a partition of the universe into lane
/// batches and per-fault singles. A pure function of the universe, the
/// golden verdict and the kernel — never of the plan or worker count
/// — so the executor shards identical items in every
/// configuration.
#[derive(Debug, Clone)]
struct LanePlan {
    batches: Vec<LaneBatch>,
    work: Vec<LaneWork>,
}

/// Per-universe shared state, built once and borrowed by every shard
/// worker: the schedule, its precomputed pattern words, and the golden
/// fault-free run's verdict that gates single-row pruning.
#[derive(Debug)]
struct UniversePrep<'a> {
    schedule: &'a MarchSchedule,
    patterns: SchedulePatterns,
    /// True if a pristine memory passes the schedule — the precondition
    /// under which reads of fault-free rows are guaranteed to match and
    /// single-row faults may skip every other row's sweep.
    golden_passed: bool,
}

impl FaultSimulator {
    /// Creates a simulator for the given geometry, running the default
    /// lane-parallel kernel.
    pub fn new(config: MemConfig) -> Self {
        FaultSimulator {
            config,
            kernel: FaultSimKernel::default(),
        }
    }

    /// Returns a copy of the simulator pinned to an explicit kernel —
    /// how the equivalence suites and benches select the per-memory
    /// oracle.
    pub fn with_kernel(mut self, kernel: FaultSimKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel universe simulation runs under.
    pub fn kernel(&self) -> FaultSimKernel {
        self.kernel
    }

    /// Geometry the simulator builds memories with.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Simulates one fault against a schedule on a fresh memory, always
    /// running the full address sweeps.
    ///
    /// This is the *unpruned oracle*: the batched universe entry points
    /// skip the sweeps a single-row fault cannot influence, and the
    /// regression suite asserts their outcomes equal this one's. Batch
    /// work should go through [`FaultSimulator::simulate_universe`],
    /// which builds the schedule once and reuses one memory across the
    /// whole fault list.
    pub fn simulate_fault_schedule(&self, schedule: &MarchSchedule, fault: &MemoryFault) -> FaultSimOutcome {
        let mut sram = Sram::new(self.config);
        let patterns = SchedulePatterns::new(schedule, self.config.width());
        sram.reset();
        fault
            .inject_into(&mut sram)
            .expect("fault universe must match the simulator geometry");
        let run = MarchRunner::new()
            .run_schedule_with(&mut sram, schedule, &patterns)
            .expect("march programme must match the simulator geometry");
        self.classify(fault, run.sites())
    }

    /// Builds the per-universe shared state: the precomputed pattern
    /// words and the golden fault-free run that gates pruning.
    fn prepare<'a>(&self, schedule: &'a MarchSchedule) -> UniversePrep<'a> {
        let patterns = SchedulePatterns::new(schedule, self.config.width());
        let mut pristine = Sram::new(self.config);
        let golden = MarchRunner::new()
            .run_schedule_with(&mut pristine, schedule, &patterns)
            .expect("march programme must match the simulator geometry");
        UniversePrep {
            schedule,
            patterns,
            golden_passed: golden.passed(),
        }
    }

    /// Simulates one fault on a reusable memory: resets it to the
    /// pristine background, injects the fault and runs the borrowed
    /// schedule — restricted to the faulty row when the fault qualifies
    /// and the golden run passed. The hot inner step of every batched
    /// entry point.
    fn simulate_fault_batched(
        &self,
        sram: &mut Sram,
        prep: &UniversePrep<'_>,
        fault: &MemoryFault,
    ) -> FaultSimOutcome {
        sram.reset();
        fault
            .inject_into(sram)
            .expect("fault universe must match the simulator geometry");
        let runner = MarchRunner::new();
        let run = match fault.deviation_rows().filter(|_| prep.golden_passed) {
            Some((row, second)) => {
                let pair = [row, second.unwrap_or(row)];
                let rows = if second.is_some() { &pair[..] } else { &pair[..1] };
                runner
                    .run_schedule_rows(sram, prep.schedule, &prep.patterns, rows)
                    .expect("march programme must match the simulator geometry")
            }
            None => runner
                .run_schedule_with(sram, prep.schedule, &prep.patterns)
                .expect("march programme must match the simulator geometry"),
        };
        self.classify(fault, run.sites())
    }

    /// The lane batcher: partitions a universe into ≤64-lane batches
    /// plus per-fault singles.
    ///
    /// * Single-row lane-expressible cell faults (stuck-at, transition,
    ///   retention, read-disturb) chunk greedily in universe order —
    ///   lanes are independent, so row overlap between them is fine.
    /// * Coupling faults with distinct victim/aggressor cells batch
    ///   first-fit into coupling-only batches whose victim+aggressor
    ///   row sets are pairwise disjoint across lanes, which keeps every
    ///   aggressor cell broadcast (fault-free in all lanes).
    /// * Everything else — stuck-open, decoder, self-coupled cells —
    ///   and *every* fault when the golden run failed or the kernel is
    ///   [`FaultSimKernel::PerMemory`] stays a per-fault single.
    ///
    /// The work list orders batches first (construction order), then
    /// singles in universe order; the scatter back into universe-order
    /// slots makes the partition order unobservable in the output.
    fn lane_plan(&self, golden_passed: bool, universe: &FaultList) -> LanePlan {
        let faults = universe.as_slice();
        if self.kernel == FaultSimKernel::PerMemory || !golden_passed {
            return LanePlan {
                batches: Vec::new(),
                work: (0..faults.len()).map(LaneWork::Single).collect(),
            };
        }
        let mut batches: Vec<LaneBatch> = Vec::new();
        let mut singles: Vec<usize> = Vec::new();
        // Pass 1: single-row cell classes, chunked 64 at a time.
        let mut current = LaneBatch {
            lanes: Vec::new(),
            rows: Vec::new(),
        };
        let mut current_rows: Vec<Address> = Vec::new();
        // Pass 2 accumulators: open coupling batches with their row sets.
        let mut coupling: Vec<(LaneBatch, Vec<Address>)> = Vec::new();
        for (index, fault) in faults.iter().enumerate() {
            let (coord, cell_fault) = match fault {
                MemoryFault::Cell { coord, fault } if LanePlanes::supports(*coord, fault) => (coord, fault),
                _ => {
                    singles.push(index);
                    continue;
                }
            };
            if cell_fault.is_coupling() {
                let (first, second) = cell_fault
                    .deviation_rows(*coord)
                    .expect("a coupling fault deviates on its victim and aggressor rows");
                let rows: Vec<Address> = std::iter::once(first).chain(second).collect();
                let slot = coupling.iter_mut().find(|(batch, batch_rows)| {
                    batch.lanes.len() < 64 && rows.iter().all(|row| !batch_rows.contains(row))
                });
                match slot {
                    Some((batch, batch_rows)) => {
                        batch.lanes.push(index);
                        batch_rows.extend(rows);
                    }
                    None => coupling.push((
                        LaneBatch {
                            lanes: vec![index],
                            rows: Vec::new(),
                        },
                        rows,
                    )),
                }
            } else {
                current.lanes.push(index);
                current_rows.push(coord.address);
                if current.lanes.len() == 64 {
                    current.rows = sorted_distinct(std::mem::take(&mut current_rows));
                    batches.push(std::mem::replace(
                        &mut current,
                        LaneBatch {
                            lanes: Vec::new(),
                            rows: Vec::new(),
                        },
                    ));
                }
            }
        }
        if !current.lanes.is_empty() {
            current.rows = sorted_distinct(current_rows);
            batches.push(current);
        }
        for (mut batch, rows) in coupling {
            batch.rows = sorted_distinct(rows);
            batches.push(batch);
        }
        let work = (0..batches.len())
            .map(LaneWork::Batch)
            .chain(singles.into_iter().map(LaneWork::Single))
            .collect();
        LanePlan { batches, work }
    }

    /// Simulates one lane batch: packs each fault into its lane of a
    /// fresh [`LanePlanes`], replays the schedule once over the union
    /// of the batch's pruned rows, and classifies each lane's outcome.
    /// Returned outcomes parallel `batch.lanes`.
    fn simulate_lane_batch(
        &self,
        prep: &UniversePrep<'_>,
        universe: &FaultList,
        batch: &LaneBatch,
        scratch: &mut LaneScratch,
    ) -> Vec<FaultSimOutcome> {
        let mut planes = match scratch.planes.take() {
            Some(mut planes) if planes.config() == self.config => {
                planes.reset();
                planes
            }
            _ => LanePlanes::new(self.config),
        };
        for (lane, &index) in batch.lanes.iter().enumerate() {
            match &universe.as_slice()[index] {
                MemoryFault::Cell { coord, fault } => planes.add_lane_fault(lane, *coord, fault),
                MemoryFault::Decoder(_) => unreachable!("batcher routes decoder faults to singles"),
            }
        }
        planes.freeze();
        let lane_sites = run_schedule_lanes(
            &mut planes,
            prep.schedule,
            &prep.patterns,
            &batch.rows,
            batch.lanes.len(),
            scratch,
        );
        scratch.planes = Some(planes);
        batch
            .lanes
            .iter()
            .zip(lane_sites)
            .map(|(&index, sites)| self.classify(&universe.as_slice()[index], sites))
            .collect()
    }

    /// Cost (row units) of one lane-kernel work item: a batch sweeps
    /// the union of its lanes' rows once; a single costs what the
    /// per-fault path charges it.
    fn work_cost(
        &self,
        lane_plan: &LanePlan,
        golden_passed: bool,
        universe: &FaultList,
        work: LaneWork,
    ) -> u64 {
        match work {
            LaneWork::Batch(batch) => lane_plan.batches[batch].rows.len() as u64,
            LaneWork::Single(index) => self.fault_cost(golden_passed, &universe.as_slice()[index]),
        }
    }

    /// Classifies a fault from its ascending failing sites.
    fn classify(&self, fault: &MemoryFault, sites: Vec<CellCoord>) -> FaultSimOutcome {
        let located = match fault {
            MemoryFault::Cell { coord, .. } => sites.binary_search(coord).is_ok(),
            MemoryFault::Decoder(decoder_fault) => {
                sites.iter().any(|site| site.address == decoder_fault.address)
            }
        };
        FaultSimOutcome {
            fault: *fault,
            detected: !sites.is_empty(),
            located,
            sites,
        }
    }

    /// Simulates every fault of a universe against a schedule with the
    /// default [`ShardPlan`] (one worker per available core). Outcomes
    /// are returned in exact universe order regardless of the plan.
    pub fn simulate_universe(&self, schedule: &MarchSchedule, universe: &FaultList) -> Vec<FaultSimOutcome> {
        self.simulate_universe_with(ShardPlan::default(), schedule, universe)
    }

    /// Simulates every fault of a universe under an explicit shard plan.
    ///
    /// The universe runs on the deterministic executor. Under the
    /// per-memory kernel every fault is its own work item; under the
    /// lane kernel the work items are the batcher's lane batches plus
    /// the fallback singles, and batch outcomes are scattered back into
    /// universe-order slots. Either way the result is byte-identical to
    /// the sequential (1-thread) run for every kernel and worker count.
    /// The cost-balanced partition is steered by the rows each item's
    /// (possibly pruned) replay will actually sweep: a fault's pruned
    /// row count, or a batch's union row count.
    pub fn simulate_universe_with(
        &self,
        plan: ShardPlan,
        schedule: &MarchSchedule,
        universe: &FaultList,
    ) -> Vec<FaultSimOutcome> {
        let prep = self.prepare(schedule);
        match self.kernel {
            FaultSimKernel::PerMemory => self.simulate_universe_permem(plan, &prep, universe),
            FaultSimKernel::Lanes => self.simulate_universe_lanes(plan, &prep, universe),
        }
    }

    /// The per-memory kernel's universe run, retained wholesale as the
    /// equivalence oracle: one work item per fault.
    fn simulate_universe_permem(
        &self,
        plan: ShardPlan,
        prep: &UniversePrep<'_>,
        universe: &FaultList,
    ) -> Vec<FaultSimOutcome> {
        let calibration = CostCalibration::current();
        plan.map_slots(
            universe.as_slice(),
            |_, fault| calibration.cost(CostDomain::FaultSim, self.fault_cost(prep.golden_passed, fault)),
            || Sram::new(self.config),
            |sram, _, fault| self.simulate_fault_batched(sram, prep, fault),
        )
    }

    /// The lane kernel's universe run: shard the batcher's work items,
    /// then scatter batch outcomes back into exact universe order.
    fn simulate_universe_lanes(
        &self,
        plan: ShardPlan,
        prep: &UniversePrep<'_>,
        universe: &FaultList,
    ) -> Vec<FaultSimOutcome> {
        let lane_plan = self.lane_plan(prep.golden_passed, universe);
        let calibration = CostCalibration::current();
        let item_outcomes = plan.map_slots(
            &lane_plan.work,
            |_, &work| {
                calibration.cost(
                    CostDomain::FaultSim,
                    self.work_cost(&lane_plan, prep.golden_passed, universe, work),
                )
            },
            || (Sram::new(self.config), LaneScratch::default()),
            |(sram, scratch), _, &work| match work {
                LaneWork::Batch(batch) => {
                    self.simulate_lane_batch(prep, universe, &lane_plan.batches[batch], scratch)
                }
                LaneWork::Single(index) => {
                    vec![self.simulate_fault_batched(sram, prep, &universe.as_slice()[index])]
                }
            },
        );
        scatter_lane_outcomes(&lane_plan, universe.len(), item_outcomes)
    }

    /// Physical size of one fault's run: the number of rows its
    /// (possibly pruned) sweep will visit. Pruned single-row classes
    /// sweep one row, coupling and decoder faults one or two; stuck-open
    /// faults — and every fault when the golden run failed
    /// (`golden_passed == false`) — sweep the whole address space. The
    /// batched entry points price these row units through the active
    /// [`CostCalibration`] (`FaultSim` domain) to steer the cost-weighted
    /// partition; neither the units nor the calibration ever change
    /// outcomes, only the partition.
    fn fault_cost(&self, golden_passed: bool, fault: &MemoryFault) -> u64 {
        let full_sweep = self.config.words();
        if !golden_passed {
            return full_sweep;
        }
        match fault.deviation_rows() {
            Some((_, None)) => 1,
            Some((_, Some(_))) => 2,
            None => full_sweep,
        }
    }

    /// Coverage of a single-background March test over a fault universe,
    /// simulating one fault at a time.
    ///
    /// The multi-background schedule is built once per call; each fault
    /// borrows it.
    pub fn coverage(
        &self,
        test: &MarchTest,
        universe: &FaultList,
        backgrounds: &[DataBackground],
    ) -> CoverageReport {
        let background = backgrounds.first().copied().unwrap_or_default();
        let mut phases = vec![SchedulePhase::new(background, test.clone())];
        for extra in backgrounds.iter().skip(1) {
            phases.push(SchedulePhase::new(*extra, test.clone()));
        }
        let schedule = MarchSchedule::new(test.name(), phases);
        self.coverage_schedule(&schedule, universe)
    }

    /// Coverage of a multi-background schedule over a fault universe,
    /// simulated under the default [`ShardPlan`].
    pub fn coverage_schedule(&self, schedule: &MarchSchedule, universe: &FaultList) -> CoverageReport {
        self.coverage_schedule_with(ShardPlan::default(), schedule, universe)
    }

    /// Coverage of a schedule over a universe under an explicit shard
    /// plan. Per-fault outcomes fold into the report associatively, so
    /// the merged result equals the sequential one for every plan (the
    /// sharded-determinism suite also folds per-shard reports through
    /// [`CoverageReport::merge`] and asserts the same).
    pub fn coverage_schedule_with(
        &self,
        plan: ShardPlan,
        schedule: &MarchSchedule,
        universe: &FaultList,
    ) -> CoverageReport {
        let mut report = CoverageReport::new(schedule.name());
        for outcome in self.simulate_universe_with(plan, schedule, universe) {
            report.record(outcome.fault.class(), outcome.detected, outcome.located);
        }
        report
    }
}

/// Scatters per-item outcome vectors (one per [`LanePlan`] work item,
/// in work order) back into exact universe order. Panics if the plan
/// does not cover every fault exactly once — a batcher invariant.
fn scatter_lane_outcomes(
    lane_plan: &LanePlan,
    universe_len: usize,
    item_outcomes: Vec<Vec<FaultSimOutcome>>,
) -> Vec<FaultSimOutcome> {
    let mut slots: Vec<Option<FaultSimOutcome>> = (0..universe_len).map(|_| None).collect();
    for (work, outcomes) in lane_plan.work.iter().zip(item_outcomes) {
        match work {
            LaneWork::Batch(batch) => {
                for (&index, outcome) in lane_plan.batches[*batch].lanes.iter().zip(outcomes) {
                    debug_assert!(slots[index].is_none(), "fault {index} covered twice");
                    slots[index] = Some(outcome);
                }
            }
            LaneWork::Single(index) => {
                let outcome = outcomes
                    .into_iter()
                    .next()
                    .expect("a single work item yields exactly one outcome");
                debug_assert!(slots[*index].is_none(), "fault {index} covered twice");
                slots[*index] = Some(outcome);
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the lane plan covers every fault exactly once"))
        .collect()
}

/// Ascending distinct row list for a restricted sweep.
fn sorted_distinct(mut rows: Vec<Address>) -> Vec<Address> {
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Per-worker scratch reused across lane batches.
#[derive(Default)]
struct LaneScratch {
    /// The reusable lane memory (rebuilt when the geometry changes,
    /// reset otherwise).
    planes: Option<LanePlanes>,
    /// One read's deviating `(bit, lane-mask)` pairs.
    deviations: Vec<(usize, u64)>,
}

/// Replays a schedule once on a lane memory, restricted to `rows` —
/// the lane-parallel mirror of the engine's restricted sweep
/// ([`MarchRunner::run_schedule_rows`]): ascending elements visit the
/// rows ascending, descending elements descending, retention pauses
/// apply once per element before its sweep. Returns each lane's
/// distinct failing cells, ascending — what
/// [`RunOutcome::sites`](crate::RunOutcome::sites) gives for a per-fault
/// restricted run over that lane's own rows.
fn run_schedule_lanes(
    planes: &mut LanePlanes,
    schedule: &MarchSchedule,
    patterns: &SchedulePatterns,
    rows: &[Address],
    lane_count: usize,
    scratch: &mut LaneScratch,
) -> Vec<Vec<CellCoord>> {
    debug_assert!(
        rows.windows(2).all(|pair| pair[0] < pair[1]),
        "restricted rows must be ascending and distinct"
    );
    let mut sites: Vec<Vec<CellCoord>> = vec![Vec::new(); lane_count];
    for (phase_index, phase) in schedule.phases().iter().enumerate() {
        let phase_patterns = patterns.phase(phase_index);
        for element in phase.test.elements() {
            // Pauses apply once per element, before its address sweep.
            for op in &element.ops {
                if let MarchOp::Pause(ms) = op {
                    planes.elapse_retention(f64::from(*ms));
                }
            }
            let descending = matches!(element.order, AddressOrder::Descending);
            for position in 0..rows.len() {
                let address = if descending {
                    rows[rows.len() - 1 - position]
                } else {
                    rows[position]
                };
                let row = address.index();
                for op in &element.ops {
                    match op {
                        MarchOp::Pause(_) => {}
                        MarchOp::Write(value) => {
                            planes.write_row(address, phase_patterns.word(*value, row), false);
                        }
                        MarchOp::NwrcWrite(value) => {
                            planes.write_row(address, phase_patterns.word(*value, row), true);
                        }
                        MarchOp::Read(value) => {
                            let expected = phase_patterns.word(*value, row);
                            scratch.deviations.clear();
                            planes.read_row(address, expected, &mut scratch.deviations);
                            for &(bit, mut lanes) in &scratch.deviations {
                                let site = CellCoord::new(address, bit);
                                while lanes != 0 {
                                    let lane_sites = &mut sites[lanes.trailing_zeros() as usize];
                                    // A cell that keeps failing read after
                                    // read is pushed once per run of reads.
                                    if lane_sites.last() != Some(&site) {
                                        lane_sites.push(site);
                                    }
                                    lanes &= lanes - 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    for lane_sites in &mut sites {
        lane_sites.sort_unstable();
        lane_sites.dedup();
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use fault_models::{FaultClass, FaultUniverse};
    use sram_model::CellFault;

    fn config() -> MemConfig {
        MemConfig::new(8, 4).unwrap()
    }

    fn universe() -> FaultUniverse {
        FaultUniverse::new(config())
    }

    #[test]
    fn march_c_minus_fully_covers_stuck_at_and_transition_faults() {
        let sim = FaultSimulator::new(config());
        let test = algorithms::march_c_minus();
        let saf = sim.coverage(&test, &universe().stuck_at(), &[DataBackground::Solid]);
        assert_eq!(saf.detection_coverage(), 1.0);
        assert_eq!(saf.location_coverage(), 1.0);
        let tf = sim.coverage(&test, &universe().transition(), &[DataBackground::Solid]);
        assert_eq!(tf.detection_coverage(), 1.0);
        assert_eq!(tf.location_coverage(), 1.0);
    }

    #[test]
    fn march_c_minus_detects_address_decoder_faults() {
        let sim = FaultSimulator::new(config());
        let report = sim.coverage(
            &algorithms::march_c_minus(),
            &universe().address_decoder(),
            &[DataBackground::Solid],
        );
        assert_eq!(report.detection_coverage(), 1.0);
        assert!(report.location_coverage() > 0.9);
    }

    #[test]
    fn mats_plus_has_lower_coupling_coverage_than_march_c_minus() {
        let sim = FaultSimulator::new(config());
        let coupling = universe().coupling();
        let mats = sim.coverage(&algorithms::mats_plus(), &coupling, &[DataBackground::Solid]);
        let mcm = sim.coverage(&algorithms::march_c_minus(), &coupling, &[DataBackground::Solid]);
        assert!(
            mcm.detection_coverage() > mats.detection_coverage(),
            "March C- ({:.3}) must beat MATS+ ({:.3}) on coupling faults",
            mcm.detection_coverage(),
            mats.detection_coverage()
        );
    }

    #[test]
    fn march_cw_improves_intra_word_coupling_coverage_over_march_c_minus() {
        let sim = FaultSimulator::new(config());
        let coupling = universe().coupling();
        let mcm = sim.coverage(&algorithms::march_c_minus(), &coupling, &[DataBackground::Solid]);
        let cw = sim.coverage_schedule(&algorithms::march_cw(4), &coupling);
        assert!(
            cw.detection_coverage() >= mcm.detection_coverage(),
            "March CW ({:.3}) must not lose coverage versus March C- ({:.3})",
            cw.detection_coverage(),
            mcm.detection_coverage()
        );
        assert!(cw.detection_coverage() > 0.9);
    }

    #[test]
    fn data_retention_faults_are_invisible_without_nwrtm_or_pauses() {
        let sim = FaultSimulator::new(config());
        let drf = universe().data_retention();
        let plain = sim.coverage(&algorithms::march_c_minus(), &drf, &[DataBackground::Solid]);
        assert_eq!(plain.detection_coverage(), 0.0);
        assert_eq!(plain.class(FaultClass::DataRetention).unwrap().detected, 0);
    }

    #[test]
    fn nwrtm_merge_reaches_full_drf_coverage_without_pauses() {
        let sim = FaultSimulator::new(config());
        let drf = universe().data_retention();
        let nwrtm = algorithms::with_nwrtm(&algorithms::march_c_minus());
        let report = sim.coverage(&nwrtm, &drf, &[DataBackground::Solid]);
        assert_eq!(report.detection_coverage(), 1.0);
        assert_eq!(report.location_coverage(), 1.0);
    }

    #[test]
    fn pause_based_test_also_reaches_full_drf_coverage() {
        let sim = FaultSimulator::new(config());
        let drf = universe().data_retention();
        let paused = algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100);
        let report = sim.coverage(&paused, &drf, &[DataBackground::Solid]);
        assert_eq!(report.detection_coverage(), 1.0);
    }

    #[test]
    fn nwrtm_merge_does_not_disturb_classical_coverage() {
        // Sec. 4.1: the proposed scheme keeps the baseline coverage and
        // adds DRFs on top.
        let sim = FaultSimulator::new(config());
        let nwrtm = algorithms::with_nwrtm(&algorithms::march_c_minus());
        let baseline_universe = universe().date2005_baseline();
        let base = sim.coverage(
            &algorithms::march_c_minus(),
            &baseline_universe,
            &[DataBackground::Solid],
        );
        let merged = sim.coverage(&nwrtm, &baseline_universe, &[DataBackground::Solid]);
        assert!(merged.detection_coverage() >= base.detection_coverage());
    }

    #[test]
    fn batched_universe_simulation_matches_per_fault_fresh_memories() {
        // The reusable-memory batched path must be observationally
        // identical to building a fresh memory per fault.
        let sim = FaultSimulator::new(config());
        let universe = universe().date2005_baseline();
        let schedule = algorithms::march_cw(4);
        let batched = sim.simulate_universe(&schedule, &universe);
        assert_eq!(batched.len(), universe.len());
        for (fault, outcome) in universe.iter().zip(&batched) {
            let fresh = sim.simulate_fault_schedule(&schedule, fault);
            assert_eq!(&fresh, outcome, "batched outcome diverged for {fault}");
        }
    }

    #[test]
    fn lane_kernel_outcomes_equal_the_per_memory_oracle() {
        // The heavyweight property sweep lives in the
        // `lane_kernel_equivalence` integration suite; this is the
        // in-crate smoke check over the full mixed universe.
        let sim = FaultSimulator::new(config());
        let universe = universe().date2005_full();
        let schedule = algorithms::march_cw(4);
        let lanes = sim
            .with_kernel(FaultSimKernel::Lanes)
            .simulate_universe(&schedule, &universe);
        let permem = sim
            .with_kernel(FaultSimKernel::PerMemory)
            .simulate_universe(&schedule, &universe);
        assert_eq!(lanes, permem);
    }

    #[test]
    fn lane_plan_batches_singles_and_coupling_per_the_rules() {
        let sim = FaultSimulator::new(config()).with_kernel(FaultSimKernel::Lanes);
        let universe = universe().date2005_full();
        let lane_plan = sim.lane_plan(true, &universe);
        // Every fault is covered exactly once across batches + singles.
        let mut covered = vec![0usize; universe.len()];
        for work in &lane_plan.work {
            match work {
                LaneWork::Batch(batch) => {
                    let batch = &lane_plan.batches[*batch];
                    assert!(batch.lanes.len() <= 64);
                    assert!(batch.rows.windows(2).all(|pair| pair[0] < pair[1]));
                    for &index in &batch.lanes {
                        covered[index] += 1;
                    }
                }
                LaneWork::Single(index) => covered[*index] += 1,
            }
        }
        assert!(covered.iter().all(|&count| count == 1));
        // Stuck-open and decoder faults never enter a batch.
        for work in &lane_plan.work {
            if let LaneWork::Batch(batch) = work {
                for &index in &lane_plan.batches[*batch].lanes {
                    match &universe.as_slice()[index] {
                        MemoryFault::Cell { fault, .. } => {
                            assert!(!matches!(fault, CellFault::StuckOpen))
                        }
                        MemoryFault::Decoder(_) => panic!("decoder fault in a lane batch"),
                    }
                }
            }
        }
        // A failing golden run forces everything to singles.
        let unpruned = sim.lane_plan(false, &universe);
        assert!(unpruned.batches.is_empty());
        assert_eq!(unpruned.work.len(), universe.len());
    }

    #[test]
    fn decoder_fault_cost_is_its_deviation_rows_unless_the_golden_run_fails() {
        use sram_model::{DecoderFault, DecoderFaultKind};
        let sim = FaultSimulator::new(config());
        let decoder =
            |address: u64, kind| MemoryFault::decoder(DecoderFault::new(Address::new(address), kind));
        for (fault, rows) in [
            (decoder(3, DecoderFaultKind::NoAccess), 1),
            (decoder(3, DecoderFaultKind::MapsTo(Address::new(3))), 1),
            (decoder(3, DecoderFaultKind::AlsoAccesses(Address::new(3))), 1),
            (decoder(3, DecoderFaultKind::MapsTo(Address::new(0))), 2),
            (decoder(0, DecoderFaultKind::AlsoAccesses(Address::new(7))), 2),
        ] {
            assert_eq!(sim.fault_cost(true, &fault), rows, "{fault}");
            assert_eq!(sim.fault_cost(false, &fault), config().words(), "{fault}");
        }
    }

    #[test]
    fn coupling_batches_have_pairwise_disjoint_row_sets() {
        let sim = FaultSimulator::new(config()).with_kernel(FaultSimKernel::Lanes);
        let coupling = universe().coupling();
        let lane_plan = sim.lane_plan(true, &coupling);
        for batch in &lane_plan.batches {
            let mut seen_rows = Vec::new();
            for &index in &batch.lanes {
                let MemoryFault::Cell { coord, fault } = &coupling.as_slice()[index] else {
                    panic!("coupling universe contains only cell faults");
                };
                let CellFault::Coupling { aggressor, .. } = fault else {
                    panic!("coupling universe contains only coupling faults");
                };
                let mut rows = vec![coord.address, aggressor.address];
                rows.sort_unstable();
                rows.dedup();
                for row in rows {
                    assert!(
                        !seen_rows.contains(&row),
                        "row {row} shared across lanes in one batch"
                    );
                    seen_rows.push(row);
                }
            }
        }
    }

    #[test]
    fn simulate_fault_reports_location_details() {
        let sim = FaultSimulator::new(config());
        let site = sram_model::cell::CellCoord::new(sram_model::Address::new(3), 1);
        let schedule = MarchSchedule::single(algorithms::march_c_minus(), DataBackground::Solid);
        let outcome = sim.simulate_fault_schedule(&schedule, &MemoryFault::stuck_at_0(site));
        assert!(outcome.detected);
        assert!(outcome.located);
        assert_eq!(outcome.sites, vec![site]);
        assert_eq!(outcome.fault, MemoryFault::stuck_at_0(site));
    }
}
