//! Lane-parallel memory state: up to 64 faulty machines per limb pass.
//!
//! Fault simulation replays one march schedule per fault on its own
//! memory; for single-cell fault classes the replays differ only in the
//! behaviour of one cell. [`LanePlanes`] transposes that redundancy
//! away: it packs up to 64 *independent* faulty machines into the 64
//! bit lanes of a `u64`, so one schedule replay retires all of them.
//!
//! The layout inverts [`crate::planes::BitPlanes`]. Because every lane
//! receives the identical schedule (all writes are broadcast), a cell
//! that is fault-free in every lane holds the same value in all 64
//! lanes at all times — so fault-free state is stored **once**, in a
//! plain `BitPlanes` (the *broadcast* plane), and only the handful of
//! cells that carry a fault in *some* lane live in a sparse overlay
//! whose per-cell state is a `u64` of per-lane values. A read of an
//! overlay cell XORs its lane word against the splat of the expected
//! bit: a nonzero limb instantly flags exactly the deviating lanes.
//!
//! The per-lane cell semantics (the private `LaneCell`) are the
//! bit-parallel transcription of [`crate::cell::Cell`]'s state machine
//! for the classes the transposition can express: stuck-at, transition,
//! data-retention, the read-disturb family, and coupling faults whose
//! victim and aggressor rows are lane-disjoint within the batch (so the
//! aggressor cell is always broadcast and a write watcher can replay
//! [`crate::Sram`]'s bit-ascending coupling application exactly).
//! Stuck-open cells (sense-amplifier history) and address-decoder
//! faults (whole-row aliasing) are not expressible per-lane and stay on
//! the per-fault path — the caller's batcher must route them there; see
//! [`LanePlanes::supports`].
//!
//! The equivalence contract — each lane's observable behaviour is
//! bit-identical to a dedicated [`crate::Sram`] carrying only that
//! lane's faults — is property-tested against the per-fault oracle in
//! `march`'s `lane_kernel_equivalence` suite. It holds only on
//! schedules whose fault-free (golden) run passes: the broadcast plane
//! then always equals the golden memory state, which is what lets
//! deviation detection compare overlay lanes against the expected word
//! alone ([`LanePlanes::read_row`] debug-asserts this).

use crate::cell::{CellCoord, CellFault, CellNode, CouplingKind};
use crate::config::{Address, MemConfig};
use crate::planes::BitPlanes;
use crate::retention::RetentionModel;
use crate::word::DataWord;

/// Bit-parallel state of one overlay cell across 64 lanes.
///
/// `stored` holds the cell's value in each lane; the remaining fields
/// are per-fault-class lane masks. A lane carries at most one fault per
/// cell, so at any given cell the masks are pairwise lane-disjoint and
/// the application order of the class rules never matters.
#[derive(Debug, Clone, Copy, Default)]
struct LaneCell {
    /// Per-lane stored value.
    stored: u64,
    /// Lanes in which this cell is stuck-at-0.
    sa0: u64,
    /// Lanes in which this cell is stuck-at-1.
    sa1: u64,
    /// Lanes in which this cell cannot make a 0 → 1 transition.
    tf_up: u64,
    /// Lanes in which this cell cannot make a 1 → 0 transition.
    tf_down: u64,
    /// Lanes with an open pull-up on node A (loses stored 1).
    drf_a: u64,
    /// Lanes with an open pull-up on node B (loses stored 0).
    drf_b: u64,
    /// Lanes in which a read flips the cell and returns the flip.
    rdf: u64,
    /// Lanes in which a read flips the cell but returns the original.
    drdf: u64,
    /// Lanes in which a read returns the complement, cell unchanged.
    irf: u64,
}

impl LaneCell {
    /// Lanes whose value is pinned by a stuck-at fault.
    #[inline]
    fn stuck(&self) -> u64 {
        self.sa0 | self.sa1
    }

    /// Broadcast write of `value`, honouring stuck-at and transition
    /// masks exactly as [`crate::cell::Cell::write`] does per scalar.
    #[inline]
    fn write(&mut self, value: bool) {
        let old = self.stored;
        let mut new = if value { u64::MAX } else { 0 };
        // Stuck lanes ignore the write and keep their pinned value.
        new = (new & !self.stuck()) | self.sa1;
        if value {
            // TF↑ lanes cannot rise: they keep the old value (a lane
            // already at 1 stays 1, which the blend also preserves).
            new = (new & !self.tf_up) | (old & self.tf_up);
        } else {
            new = (new & !self.tf_down) | (old & self.tf_down);
        }
        self.stored = new;
    }

    /// Broadcast NWRC write: a normal write, except that DRF lanes fail
    /// to flip the value held by their open node
    /// ([`crate::cell::Cell::write_nwrc`]).
    #[inline]
    fn write_nwrc(&mut self, value: bool) {
        let old = self.stored;
        self.write(value);
        if value {
            // DRF-A lanes cannot be driven 0 → 1 by an NWRC write.
            self.stored &= !(self.drf_a & !old);
        } else {
            // DRF-B lanes cannot be driven 1 → 0 by an NWRC write.
            self.stored |= self.drf_b & old;
        }
    }

    /// Broadcast read returning the per-lane observed values, applying
    /// the read-disturb family ([`crate::cell::Cell::read`]): RDF flips
    /// and observes the flip, DRDF observes the original then flips,
    /// IRF observes the complement without flipping.
    #[inline]
    fn read(&mut self) -> u64 {
        let observed = self.stored ^ (self.rdf | self.irf);
        self.stored ^= self.rdf | self.drdf;
        observed
    }

    /// Retention decay after a sufficient pause: DRF-A lanes lose a
    /// stored 1, DRF-B lanes lose a stored 0
    /// ([`crate::cell::Cell::elapse_retention`]). Idempotent.
    #[inline]
    fn decay(&mut self) {
        let decay_a = self.drf_a & self.stored;
        let decay_b = self.drf_b & !self.stored;
        self.stored = (self.stored & !decay_a) | decay_b;
    }

    /// Forces `value` onto the given lanes, honouring stuck-at pins
    /// exactly as [`crate::cell::Cell::force`] does (used by coupling
    /// victims, which carry no stuck masks in practice).
    #[inline]
    fn force(&mut self, lanes: u64, value: bool) {
        let lanes = lanes & !self.stuck();
        if value {
            self.stored |= lanes;
        } else {
            self.stored &= !lanes;
        }
    }

    /// Inverts the given lanes in place (CFin application).
    #[inline]
    fn invert(&mut self, lanes: u64) {
        self.stored ^= lanes & !self.stuck();
    }
}

/// What a sensitised write-coupling fault does to its victim lane.
#[derive(Debug, Clone, Copy)]
enum WriteEffect {
    /// CFid: force the victim to a fixed value.
    Force(bool),
    /// CFin: invert the victim.
    Invert,
}

/// A CFid/CFin registration: fires when the (always fault-free, hence
/// broadcast) aggressor cell makes the sensitising transition during a
/// row write.
#[derive(Debug, Clone)]
struct WriteWatcher {
    aggressor: CellCoord,
    /// Whether the sensitising aggressor transition is 0 → 1.
    rises: bool,
    effect: WriteEffect,
    victim: CellCoord,
    /// Single-bit mask of the lane carrying this fault.
    lane: u64,
}

/// A CFst registration: applied at observe time, when the victim's row
/// is read while the broadcast aggressor holds the sensitising value —
/// mirroring `Sram::apply_state_coupling`.
#[derive(Debug, Clone)]
struct StateWatcher {
    aggressor: CellCoord,
    aggressor_value: bool,
    forced_value: bool,
    victim: CellCoord,
    /// Single-bit mask of the lane carrying this fault.
    lane: u64,
}

/// One overlay cell: a coordinate plus its packed per-lane state.
#[derive(Debug, Clone)]
struct OverlayEntry {
    row: u64,
    bit: usize,
    cell: LaneCell,
}

/// Lane-parallel memory state for up to 64 independently-faulty copies
/// of one memory, driven by broadcast row operations.
///
/// Construction protocol: [`LanePlanes::new`], then
/// [`LanePlanes::add_lane_fault`] for each fault of each lane, then [`LanePlanes::freeze`]
/// before the first row operation. All lanes then start from the
/// all-zero reset state (stuck-at-1 lanes start at their pinned value,
/// exactly as `Sram` fault injection leaves a freshly reset memory).
#[derive(Debug, Clone)]
pub struct LanePlanes {
    config: MemConfig,
    /// Mask of lanes with a registered fault.
    active: u64,
    /// Fault-free (golden) state, shared by all lanes.
    broadcast: BitPlanes,
    /// Faulty cells, sorted by (row, bit).
    overlay: Vec<OverlayEntry>,
    write_watchers: Vec<WriteWatcher>,
    state_watchers: Vec<StateWatcher>,
    retention: RetentionModel,
    frozen: bool,
}

impl LanePlanes {
    /// Creates an empty lane memory with the default (paper) retention
    /// model — the model a plain `Sram::new` uses, so lane and
    /// per-fault runs see identical decay thresholds.
    pub fn new(config: MemConfig) -> Self {
        LanePlanes::with_retention(config, RetentionModel::default())
    }

    /// Creates an empty lane memory with an explicit retention model.
    pub fn with_retention(config: MemConfig, retention: RetentionModel) -> Self {
        LanePlanes {
            config,
            active: 0,
            broadcast: BitPlanes::new(config),
            overlay: Vec::new(),
            write_watchers: Vec::new(),
            state_watchers: Vec::new(),
            retention,
            frozen: false,
        }
    }

    /// Clears the memory back to its freshly-constructed state: golden
    /// planes zeroed, no registered lanes, unfrozen. Keeps the limb
    /// allocations, so a shard worker can reuse one memory across lane
    /// batches instead of reallocating per batch.
    pub fn reset(&mut self) {
        self.active = 0;
        self.broadcast.clear();
        self.overlay.clear();
        self.write_watchers.clear();
        self.state_watchers.clear();
        self.frozen = false;
    }

    /// True if the lane transposition can express this fault at this
    /// cell. Stuck-open faults need sense-amplifier history and
    /// self-coupled cells (victim == aggressor) would make the
    /// aggressor non-broadcast; both stay on the per-fault path.
    pub fn supports(coord: CellCoord, fault: &CellFault) -> bool {
        match fault {
            CellFault::StuckOpen => false,
            CellFault::Coupling { aggressor, .. } => *aggressor != coord,
            _ => true,
        }
    }

    /// The memory geometry the lanes share.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Registers `fault` at `coord` in lane `lane` (0..64). A lane may
    /// carry several faults, at most one per cell; the caller's batcher
    /// guarantees coupling row-disjointness across lanes.
    ///
    /// # Panics
    ///
    /// Panics if the planes are frozen, the lane or coordinate is out
    /// of range, or the fault class is unsupported (see
    /// [`LanePlanes::supports`]).
    pub fn add_lane_fault(&mut self, lane: usize, coord: CellCoord, fault: &CellFault) {
        assert!(!self.frozen, "cannot add faults after freeze");
        assert!(lane < 64, "lane index {lane} out of range");
        assert!(
            coord.address.index() < self.config.words() && coord.bit < self.config.width(),
            "fault coordinate {coord} outside {}x{}",
            self.config.words(),
            self.config.width()
        );
        assert!(
            LanePlanes::supports(coord, fault),
            "fault class at {coord} is not lane-expressible"
        );
        let mask = 1u64 << lane;
        self.active |= mask;
        match fault {
            CellFault::StuckAt(value) => {
                let cell = self.ensure_cell(coord);
                if *value {
                    // Injection pins the cell to 1 immediately, exactly
                    // as `Cell::set_fault` does on a reset memory.
                    cell.sa1 |= mask;
                    cell.stored |= mask;
                } else {
                    cell.sa0 |= mask;
                }
            }
            CellFault::TransitionUp => self.ensure_cell(coord).tf_up |= mask,
            CellFault::TransitionDown => self.ensure_cell(coord).tf_down |= mask,
            CellFault::ReadDestructive => self.ensure_cell(coord).rdf |= mask,
            CellFault::DeceptiveReadDestructive => self.ensure_cell(coord).drdf |= mask,
            CellFault::IncorrectRead => self.ensure_cell(coord).irf |= mask,
            CellFault::DataRetention { node } => match node {
                CellNode::A => self.ensure_cell(coord).drf_a |= mask,
                CellNode::B => self.ensure_cell(coord).drf_b |= mask,
            },
            CellFault::Coupling { aggressor, kind } => {
                // The victim cell behaves normally under writes/reads
                // but must be lane-addressable for forces.
                self.ensure_cell(coord);
                match kind {
                    CouplingKind::Idempotent {
                        aggressor_rises,
                        forced_value,
                    } => self.write_watchers.push(WriteWatcher {
                        aggressor: *aggressor,
                        rises: *aggressor_rises,
                        effect: WriteEffect::Force(*forced_value),
                        victim: coord,
                        lane: mask,
                    }),
                    CouplingKind::Inversion { aggressor_rises } => self.write_watchers.push(WriteWatcher {
                        aggressor: *aggressor,
                        rises: *aggressor_rises,
                        effect: WriteEffect::Invert,
                        victim: coord,
                        lane: mask,
                    }),
                    CouplingKind::State {
                        aggressor_value,
                        forced_value,
                    } => self.state_watchers.push(StateWatcher {
                        aggressor: *aggressor,
                        aggressor_value: *aggressor_value,
                        forced_value: *forced_value,
                        victim: coord,
                        lane: mask,
                    }),
                }
            }
            CellFault::StuckOpen => unreachable!("supports() rejects stuck-open"),
        }
    }

    /// Finishes fault registration. Must be called before the first row
    /// operation.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Broadcast row write (`nwrc` selects the NWRC write flavour),
    /// replaying `Sram::write_row`'s coupling semantics: aggressor
    /// transitions are captured against the pre-write broadcast state,
    /// every cell is written, then surviving coupling effects fire —
    /// except onto same-row victims written *after* their aggressor in
    /// the bit-ascending sweep, whose own write clobbers the force.
    pub fn write_row(&mut self, address: Address, data: &DataWord, nwrc: bool) {
        debug_assert!(self.frozen, "write before freeze");
        let row = address.index();
        // Phase A: capture sensitising aggressor transitions before the
        // broadcast state is overwritten. Aggressors are fault-free in
        // every lane (batcher invariant), so the broadcast bit *is* the
        // aggressor's value in the fault-carrying lane.
        let mut pending: Vec<(CellCoord, WriteEffect, u64)> = Vec::new();
        for watcher in &self.write_watchers {
            if watcher.aggressor.address != address {
                continue;
            }
            let old = self.broadcast.bit(row, watcher.aggressor.bit);
            let new = data.bit(watcher.aggressor.bit);
            if old != new && new == watcher.rises {
                // A same-row victim at a higher bit is written after
                // the aggressor in `Sram`'s bit-ascending sweep: its
                // own (normal) write overwrites the coupling effect.
                let clobbered =
                    watcher.victim.address == address && watcher.victim.bit > watcher.aggressor.bit;
                if !clobbered {
                    pending.push((watcher.victim, watcher.effect, watcher.lane));
                }
            }
        }
        // Phase B: the broadcast write plus every overlay cell in row.
        self.broadcast.set_word(row, data);
        let range = self.row_range(row);
        for entry in &mut self.overlay[range] {
            let value = data.bit(entry.bit);
            if nwrc {
                entry.cell.write_nwrc(value);
            } else {
                entry.cell.write(value);
            }
        }
        // Phase C: surviving coupling effects onto victim lanes.
        for (victim, effect, lane) in pending {
            let cell = self.overlay_cell_mut(victim);
            match effect {
                WriteEffect::Force(value) => cell.force(lane, value),
                WriteEffect::Invert => cell.invert(lane),
            }
        }
    }

    /// Broadcast row read against the golden `expected` word. Appends
    /// `(bit, lane_mask)` pairs for every overlay cell whose observed
    /// lanes deviate from the expected bit (ascending bit order, so
    /// per-lane failing-bit lists match `DataWord::mismatches` order)
    /// and returns the union of deviating lanes.
    ///
    /// Requires a passing golden run: the broadcast plane must equal
    /// `expected` (debug-asserted) — that is what makes "deviates from
    /// expected" and "deviates from this lane's own fault-free value"
    /// the same predicate.
    pub fn read_row(
        &mut self,
        address: Address,
        expected: &DataWord,
        deviations: &mut Vec<(usize, u64)>,
    ) -> u64 {
        debug_assert!(self.frozen, "read before freeze");
        let row = address.index();
        debug_assert!(
            self.broadcast.word_equals(row, expected),
            "lane kernel requires a passing golden run (broadcast deviated at row {row})"
        );
        // State coupling observes at read time (`apply_state_coupling`):
        // force each victim in this row whose broadcast aggressor holds
        // the sensitising value, before its cell is read.
        let mut forces: Vec<(CellCoord, bool, u64)> = Vec::new();
        for watcher in &self.state_watchers {
            if watcher.victim.address != address {
                continue;
            }
            let aggressor_bit = self
                .broadcast
                .bit(watcher.aggressor.address.index(), watcher.aggressor.bit);
            if aggressor_bit == watcher.aggressor_value {
                forces.push((watcher.victim, watcher.forced_value, watcher.lane));
            }
        }
        for (victim, value, lane) in forces {
            self.overlay_cell_mut(victim).force(lane, value);
        }
        let mut union = 0u64;
        let range = self.row_range(row);
        let active = self.active;
        for entry in &mut self.overlay[range] {
            let observed = entry.cell.read();
            let splat = if expected.bit(entry.bit) { u64::MAX } else { 0 };
            let deviating = (observed ^ splat) & active;
            if deviating != 0 {
                deviations.push((entry.bit, deviating));
                union |= deviating;
            }
        }
        union
    }

    /// The word lane `lane` stores at `address`: the broadcast word with
    /// the lane's own value at each overlay cell of the row.
    ///
    /// # Panics
    ///
    /// Panics if the lane or address is out of range.
    pub fn lane_word(&self, lane: usize, address: Address) -> DataWord {
        assert!(lane < 64, "lane index {lane} out of range");
        let row = address.index();
        let mut word = self.broadcast.word(row);
        for entry in &self.overlay[self.row_range(row)] {
            word.set(entry.bit, (entry.cell.stored >> lane) & 1 == 1);
        }
        word
    }

    /// Applies a retention pause to every lane: overlay cells decay iff
    /// the pause meets the retention model's threshold, judged per
    /// pause exactly as `Sram::elapse_retention` does.
    pub fn elapse_retention(&mut self, pause_ms: f64) {
        if pause_ms < self.retention.decay_threshold_ms {
            return;
        }
        for entry in &mut self.overlay {
            entry.cell.decay();
        }
    }

    /// Index range of overlay cells in `row`.
    fn row_range(&self, row: u64) -> std::ops::Range<usize> {
        let start = self.overlay.partition_point(|entry| entry.row < row);
        let end = self.overlay.partition_point(|entry| entry.row <= row);
        start..end
    }

    /// The overlay cell at `coord`, which must exist (watchers only
    /// target registered victim cells).
    fn overlay_cell_mut(&mut self, coord: CellCoord) -> &mut LaneCell {
        let key = (coord.address.index(), coord.bit);
        let index = self
            .overlay
            .binary_search_by(|entry| (entry.row, entry.bit).cmp(&key))
            .expect("watcher victim must be an overlay cell");
        &mut self.overlay[index].cell
    }

    /// The overlay cell at `coord`, inserted zeroed in `(row, bit)`
    /// order if absent.
    fn ensure_cell(&mut self, coord: CellCoord) -> &mut LaneCell {
        let key = (coord.address.index(), coord.bit);
        let index = self
            .overlay
            .binary_search_by_key(&key, |entry| (entry.row, entry.bit))
            .unwrap_or_else(|index| {
                let cell = LaneCell::default();
                self.overlay.insert(
                    index,
                    OverlayEntry {
                        row: key.0,
                        bit: key.1,
                        cell,
                    },
                );
                index
            });
        &mut self.overlay[index].cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemConfig {
        MemConfig::new(8, 4).unwrap()
    }

    fn coord(row: u64, bit: usize) -> CellCoord {
        CellCoord::new(Address::new(row), bit)
    }

    fn splat_word(value: bool) -> DataWord {
        DataWord::splat(value, 4)
    }

    #[test]
    fn stuck_at_lanes_deviate_from_the_expected_bit() {
        let mut lanes = LanePlanes::new(config());
        lanes.add_lane_fault(0, coord(2, 1), &CellFault::StuckAt(true));
        lanes.add_lane_fault(1, coord(2, 1), &CellFault::StuckAt(false));
        lanes.freeze();
        // Reset state: SA1 lane already holds 1.
        let zero = splat_word(false);
        let mut deviations = Vec::new();
        let union = lanes.read_row(Address::new(2), &zero, &mut deviations);
        assert_eq!(union, 0b01, "only the SA1 lane deviates from all-zero");
        assert_eq!(deviations, vec![(1, 0b01)]);
        // After writing all-ones, the SA0 lane deviates instead.
        let one = splat_word(true);
        lanes.write_row(Address::new(2), &one, false);
        deviations.clear();
        let union = lanes.read_row(Address::new(2), &one, &mut deviations);
        assert_eq!(union, 0b10);
        assert_eq!(deviations, vec![(1, 0b10)]);
    }

    #[test]
    fn transition_fault_blocks_only_its_direction() {
        let mut lanes = LanePlanes::new(config());
        lanes.add_lane_fault(3, coord(0, 0), &CellFault::TransitionUp);
        lanes.freeze();
        let one = splat_word(true);
        lanes.write_row(Address::new(0), &one, false);
        let mut deviations = Vec::new();
        let union = lanes.read_row(Address::new(0), &one, &mut deviations);
        assert_eq!(union, 1 << 3, "TF↑ lane failed the 0→1 write");
        // A 1→0 write works, so the lane stops deviating.
        let zero = splat_word(false);
        lanes.write_row(Address::new(0), &zero, false);
        deviations.clear();
        assert_eq!(lanes.read_row(Address::new(0), &zero, &mut deviations), 0);
    }

    #[test]
    fn read_disturb_family_matches_scalar_semantics() {
        let mut lanes = LanePlanes::new(config());
        lanes.add_lane_fault(0, coord(1, 2), &CellFault::ReadDestructive);
        lanes.add_lane_fault(1, coord(1, 2), &CellFault::DeceptiveReadDestructive);
        lanes.add_lane_fault(2, coord(1, 2), &CellFault::IncorrectRead);
        lanes.freeze();
        let zero = splat_word(false);
        let mut deviations = Vec::new();
        // First read: RDF observes the flip, DRDF observes the original,
        // IRF observes the complement.
        let union = lanes.read_row(Address::new(1), &zero, &mut deviations);
        assert_eq!(union, 0b101);
        // Second read: the RDF lane flips back to 0 and observes it
        // (agreeing again), the DRDF lane now observes the 1 its first
        // read left behind, IRF deviates on every read.
        deviations.clear();
        let union = lanes.read_row(Address::new(1), &zero, &mut deviations);
        assert_eq!(union, 0b110);
    }

    #[test]
    fn retention_pause_decays_only_past_threshold() {
        let mut lanes = LanePlanes::new(config());
        lanes.add_lane_fault(0, coord(4, 3), &CellFault::DataRetention { node: CellNode::A });
        lanes.freeze();
        let one = splat_word(true);
        lanes.write_row(Address::new(4), &one, false);
        lanes.elapse_retention(10.0);
        let mut deviations = Vec::new();
        assert_eq!(
            lanes.read_row(Address::new(4), &one, &mut deviations),
            0,
            "a sub-threshold pause must not decay"
        );
        lanes.elapse_retention(100.0);
        assert_eq!(lanes.read_row(Address::new(4), &one, &mut deviations), 1);
    }

    #[test]
    fn nwrc_write_exposes_drf_without_any_pause() {
        let mut lanes = LanePlanes::new(config());
        lanes.add_lane_fault(5, coord(3, 0), &CellFault::DataRetention { node: CellNode::A });
        lanes.freeze();
        // NWRC 0→1 write fails on the DRF-A lane.
        let one = splat_word(true);
        lanes.write_row(Address::new(3), &one, true);
        let mut deviations = Vec::new();
        assert_eq!(lanes.read_row(Address::new(3), &one, &mut deviations), 1 << 5);
    }

    #[test]
    fn idempotent_coupling_fires_on_the_sensitising_transition_only() {
        let mut lanes = LanePlanes::new(config());
        let victim = coord(2, 0);
        let fault = CellFault::Coupling {
            aggressor: coord(5, 0),
            kind: CouplingKind::Idempotent {
                aggressor_rises: true,
                forced_value: true,
            },
        };
        lanes.add_lane_fault(7, victim, &fault);
        lanes.freeze();
        let zero = splat_word(false);
        let one = splat_word(true);
        // Falling / no-op writes on the aggressor row do not fire.
        lanes.write_row(Address::new(5), &zero, false);
        let mut deviations = Vec::new();
        assert_eq!(lanes.read_row(Address::new(2), &zero, &mut deviations), 0);
        // The rising write forces the victim lane to 1.
        lanes.write_row(Address::new(5), &one, false);
        assert_eq!(lanes.read_row(Address::new(2), &zero, &mut deviations), 1 << 7);
    }

    #[test]
    fn same_row_victim_written_after_its_aggressor_clobbers_the_force() {
        let mut lanes = LanePlanes::new(config());
        // Victim bit 2, aggressor bit 1 of the same row: the bit-
        // ascending sweep writes the victim after the aggressor, so the
        // coupling force must be clobbered by the victim's own write.
        let fault = CellFault::Coupling {
            aggressor: coord(6, 1),
            kind: CouplingKind::Idempotent {
                aggressor_rises: true,
                forced_value: true,
            },
        };
        lanes.add_lane_fault(0, coord(6, 2), &fault);
        lanes.freeze();
        let mut pattern = DataWord::zero(4);
        pattern.set(1, true); // aggressor rises, victim written to 0 after
        lanes.write_row(Address::new(6), &pattern, false);
        let mut deviations = Vec::new();
        assert_eq!(
            lanes.read_row(Address::new(6), &pattern, &mut deviations),
            0,
            "victim's own later write must win over the coupling force"
        );
    }

    #[test]
    fn state_coupling_forces_at_observe_time() {
        let mut lanes = LanePlanes::new(config());
        let fault = CellFault::Coupling {
            aggressor: coord(1, 0),
            kind: CouplingKind::State {
                aggressor_value: true,
                forced_value: true,
            },
        };
        lanes.add_lane_fault(4, coord(7, 0), &fault);
        lanes.freeze();
        let zero = splat_word(false);
        let one = splat_word(true);
        let mut deviations = Vec::new();
        // Aggressor holds 0: no force.
        assert_eq!(lanes.read_row(Address::new(7), &zero, &mut deviations), 0);
        // Aggressor holds the sensitising 1: victim forced at observe.
        lanes.write_row(Address::new(1), &one, false);
        assert_eq!(lanes.read_row(Address::new(7), &zero, &mut deviations), 1 << 4);
    }

    #[test]
    fn a_lane_with_two_faults_matches_an_sram_holding_both() {
        use crate::Sram;
        let faults = [
            (1, CellFault::TransitionDown),
            (3, CellFault::DataRetention { node: CellNode::B }),
        ];
        let mut lanes = LanePlanes::new(MemConfig::new(1, 4).unwrap());
        let mut sram = Sram::new(MemConfig::new(1, 4).unwrap());
        for (bit, fault) in faults {
            lanes.add_lane_fault(2, coord(0, bit), &fault);
            sram.inject_cell_fault(coord(0, bit), fault).unwrap();
        }
        // Lane 5 carries a different fault at one of the same cells.
        lanes.add_lane_fault(5, coord(0, 1), &CellFault::StuckAt(true));
        lanes.freeze();
        let row = Address::new(0);
        let mut expected = DataWord::zero(4);
        let mut deviations = Vec::new();
        let ops: [(Option<bool>, bool); 6] = [
            (Some(true), false),
            (None, false),
            (Some(false), true),
            (None, false),
            (Some(false), false),
            (None, true),
        ];
        for (write, pause) in ops {
            if pause {
                lanes.elapse_retention(100.0);
                sram.elapse_retention(100.0);
            }
            match write {
                Some(value) => {
                    expected = splat_word(value);
                    lanes.write_row(row, &expected, false);
                    sram.write(row, &expected).unwrap();
                }
                None => {
                    deviations.clear();
                    let union = lanes.read_row(row, &expected, &mut deviations);
                    let observed = sram.read(row).unwrap();
                    let lane_bits: Vec<usize> = deviations
                        .iter()
                        .filter(|&&(_, lanes)| lanes & (1 << 2) != 0)
                        .map(|&(bit, _)| bit)
                        .collect();
                    assert_eq!(lane_bits, expected.mismatches(&observed).to_vec());
                    assert_eq!(union & (1 << 2) != 0, observed != expected);
                }
            }
            assert_eq!(lanes.lane_word(2, row), sram.peek(row).unwrap());
        }
    }

    #[test]
    fn supports_rejects_stuck_open_and_self_coupling() {
        assert!(!LanePlanes::supports(coord(0, 0), &CellFault::StuckOpen));
        let self_coupled = CellFault::Coupling {
            aggressor: coord(0, 0),
            kind: CouplingKind::Inversion {
                aggressor_rises: true,
            },
        };
        assert!(!LanePlanes::supports(coord(0, 0), &self_coupled));
        assert!(LanePlanes::supports(coord(0, 0), &CellFault::StuckAt(true)));
    }
}
