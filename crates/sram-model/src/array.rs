//! The behavioural e-SRAM: cell array, decoder, port operations and
//! fault-injection surface.

use crate::cell::{Cell, CellCoord, CellFault, CouplingKind};
use crate::config::{Address, MemConfig};
use crate::decoder::{AddressDecoder, DecoderFault};
use crate::error::MemError;
use crate::lanes::LanePlanes;
use crate::planes::BitPlanes;
use crate::port::RowClasses;
use crate::retention::RetentionModel;
use crate::word::DataWord;
use std::collections::BTreeMap;

/// A behavioural small embedded SRAM.
///
/// The memory is word-organised (`words x width` bit cells), fronted by
/// an [`AddressDecoder`].
/// Faults are injected per bit cell ([`CellFault`]) or per address
/// ([`DecoderFault`]); port operations then exhibit the corresponding
/// faulty behaviour, which is what the March engine and the BISD
/// schemes observe.
///
/// # Storage architecture
///
/// Fault-free cells are held in packed [`BitPlanes`]: 64-bit limbs, one
/// run of limbs per word, so a fault-free word access is a limb copy.
/// Only cells with an injected fault live in a sparse overlay of
/// behavioural [`Cell`] state machines, keyed by `(row, bit)`. The
/// planes always mirror the stored value of every cell — including the
/// overlay cells — so whole-word reads and `peek` never have to walk
/// bits. This is what makes batched fault simulation at the paper's
/// 512 × 100 benchmark geometry tractable; the dense per-cell reference
/// model is kept as [`crate::reference::ReferenceSram`] and checked
/// against this array by differential tests.
///
/// # Example
///
/// ```
/// use sram_model::{Sram, MemConfig, Address, DataWord, CellFault};
/// use sram_model::cell::CellCoord;
///
/// # fn main() -> Result<(), sram_model::MemError> {
/// let mut sram = Sram::new(MemConfig::new(16, 4)?);
/// sram.inject_cell_fault(CellCoord::new(Address::new(3), 1), CellFault::StuckAt(false))?;
/// sram.write(Address::new(3), &DataWord::splat(true, 4))?;
/// let observed = sram.read(Address::new(3))?;
/// assert!(!observed.bit(1)); // the stuck-at-0 cell did not take the 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sram {
    config: MemConfig,
    /// Packed stored values of every cell (fault-free bulk storage).
    planes: BitPlanes,
    /// Sparse overlay: only faulty cells route through the behavioural
    /// cell state machine. Invariant: `planes` mirrors `cell.stored()`
    /// for every overlay entry at all times.
    overlay: BTreeMap<(u64, usize), Cell>,
    /// Bitset over rows that contain at least one overlay cell, so the
    /// per-operation fast-path test is O(1) instead of a tree probe.
    overlay_rows: Vec<u64>,
    decoder: AddressDecoder,
    retention: RetentionModel,
    /// Last value seen by the sense amplifiers; a stuck-open cell reads
    /// its bit of it, because the cell cannot drive its bitline.
    last_sense: DataWord,
    /// Victim index: aggressor coordinate -> victims coupled to it.
    /// Each victim is listed once, under its current aggressor only.
    coupling_index: BTreeMap<(u64, usize), Vec<CellCoord>>,
}

/// Moves `victim` in a coupling index from the aggressor of its
/// `previous` fault to that of its new `fault`, where each is a coupling
/// fault; an aggressor left without victims drops out of the index.
pub(crate) fn relist_victim(
    index: &mut BTreeMap<(u64, usize), Vec<CellCoord>>,
    victim: CellCoord,
    previous: Option<CellFault>,
    fault: CellFault,
) {
    if let Some(CellFault::Coupling { aggressor, .. }) = previous {
        let key = (aggressor.address.index(), aggressor.bit);
        if let Some(victims) = index.get_mut(&key) {
            victims.retain(|&listed| listed != victim);
            if victims.is_empty() {
                index.remove(&key);
            }
        }
    }
    if let CellFault::Coupling { aggressor, .. } = fault {
        index
            .entry((aggressor.address.index(), aggressor.bit))
            .or_default()
            .push(victim);
    }
}

/// The state of a memory that a walk of some of its rows reads and
/// changes, captured by [`Sram::capture_rows`] into a buffer the caller
/// reuses. Two captures of the same rows compare equal exactly when
/// every stored word, every overlay cell (decay included) and the sense
/// amplifiers' last value agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowState {
    /// The rows' stored words in list order, then the last sensed word.
    words: Vec<DataWord>,
    /// The rows' overlay cells in list order, each row's in bit order.
    cells: Vec<Cell>,
}

// `march::FaultSimulator` shards fault universes over `std::thread::scope`
// workers, each owning one reusable `Sram` as its shard handle; this
// assertion keeps the array `Send` so a field gaining interior
// non-thread-safe state (e.g. an `Rc` cache) is caught at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sram>();
};

impl Sram {
    /// Creates a fault-free memory of the given geometry, using the
    /// paper's default retention model.
    pub fn new(config: MemConfig) -> Self {
        Sram::with_retention(config, RetentionModel::default())
    }

    /// Creates a fault-free memory with an explicit retention model.
    pub fn with_retention(config: MemConfig, retention: RetentionModel) -> Self {
        Sram {
            config,
            planes: BitPlanes::new(config),
            overlay: BTreeMap::new(),
            overlay_rows: vec![0u64; (config.words() as usize).div_ceil(64)],
            decoder: AddressDecoder::new(config),
            retention,
            last_sense: DataWord::zero(config.width()),
            coupling_index: BTreeMap::new(),
        }
    }

    /// Geometry of the memory.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Retention model in effect.
    pub fn retention(&self) -> RetentionModel {
        self.retention
    }

    fn check_coord(&self, coord: CellCoord) -> Result<(), MemError> {
        self.config.check_address(coord.address)?;
        if coord.bit >= self.config.width() {
            return Err(MemError::BitOutOfRange {
                bit: coord.bit,
                width: self.config.width(),
            });
        }
        Ok(())
    }

    /// True if any overlay (faulty) cell lives in `row` (O(1)).
    #[inline]
    fn overlay_in_row(&self, row: u64) -> bool {
        (self.overlay_rows[(row / 64) as usize] >> (row % 64)) & 1 == 1
    }

    fn mark_overlay_row(&mut self, row: u64, present: bool) {
        let mask = 1u64 << (row % 64);
        let limb = &mut self.overlay_rows[(row / 64) as usize];
        if present {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    // ----------------------------------------------------------------
    // Fault injection
    // ----------------------------------------------------------------

    /// Injects a behavioural fault into one bit cell.
    ///
    /// The cell is moved from the packed planes into the behavioural
    /// overlay, keeping its currently stored value.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate (or, for coupling faults, the
    /// aggressor coordinate) is outside the memory.
    pub fn inject_cell_fault(&mut self, coord: CellCoord, fault: CellFault) -> Result<(), MemError> {
        self.check_coord(coord)?;
        if let CellFault::Coupling { aggressor, .. } = fault {
            self.check_coord(aggressor)?;
        }
        let key = (coord.address.index(), coord.bit);
        let previous = self.overlay.get(&key).and_then(Cell::fault);
        relist_victim(&mut self.coupling_index, coord, previous, fault);
        let current = self.planes.bit(key.0, key.1);
        let cell = self.overlay.entry(key).or_insert_with(|| {
            let mut cell = Cell::new();
            cell.force(current);
            cell
        });
        cell.set_fault(fault);
        self.planes.set_bit(key.0, key.1, cell.stored());
        self.mark_overlay_row(key.0, true);
        Ok(())
    }

    /// Injects an address-decoder fault.
    ///
    /// # Errors
    ///
    /// Returns an error if the fault references an address outside the
    /// memory.
    pub fn inject_decoder_fault(&mut self, fault: DecoderFault) -> Result<(), MemError> {
        self.decoder.inject(fault)
    }

    /// Removes every injected fault (cell and decoder) and resets decay
    /// state; stored values are preserved.
    pub fn clear_faults(&mut self) {
        // The planes already mirror every overlay cell's stored value,
        // so dropping the overlay preserves the contents.
        self.overlay.clear();
        self.overlay_rows.fill(0);
        self.decoder.clear_faults();
        self.coupling_index.clear();
    }

    /// Restores the memory to its pristine power-on state — all-zero
    /// contents, no faults — without reallocating the packed planes.
    ///
    /// This is the enabling primitive for batched fault simulation:
    /// `march::FaultSimulator` reuses one memory across a whole fault
    /// list (`reset` + inject per fault) instead of constructing a fresh
    /// `Sram` per fault.
    ///
    /// Cost is O(rows touched since the previous reset), not O(cells):
    /// the packed planes track dirty rows, so resetting between pruned
    /// single-row fault simulations is effectively free.
    pub fn reset(&mut self) {
        self.planes.clear();
        self.overlay.clear();
        self.overlay_rows.fill(0);
        self.coupling_index.clear();
        self.decoder.clear_faults();
        self.last_sense = DataWord::zero(self.config.width());
    }

    /// All injected cell faults with their coordinates, in address/bit order.
    pub fn cell_faults(&self) -> Vec<(CellCoord, CellFault)> {
        self.overlay
            .iter()
            .filter_map(|(&(row, bit), cell)| {
                cell.fault()
                    .map(|fault| (CellCoord::new(Address::new(row), bit), fault))
            })
            .collect()
    }

    /// All injected decoder faults.
    pub fn decoder_faults(&self) -> Vec<DecoderFault> {
        self.decoder.faults()
    }

    /// True if any fault (cell or decoder) is injected.
    pub fn is_faulty(&self) -> bool {
        self.decoder.is_faulty() || !self.overlay.is_empty()
    }

    /// Classifies the rows a batched controller must replay (see
    /// [`RowClasses`]) in one ascending walk of the fault overlay, or
    /// `None` when a stuck-open cell makes every read depend on the rows
    /// read before it: it echoes the sense amplifier, which a read of
    /// any row updates.
    ///
    /// * The fault rows, `lane` and `stepped` together, are where an
    ///   installed fault can make an access deviate. A cell fault
    ///   deviates on its [`CellFault::deviation_rows`]: its own row and,
    ///   for a coupling fault, the aggressor's row, whose write
    ///   transitions and stored value drive the victim. Decoder faults
    ///   are address-local despite touching several physical rows: the
    ///   corrupted address plus the redirected/extra row it reads or
    ///   writes ([`crate::decoder::AddressDecoder::deviation_rows`])
    ///   bound every deviation, and accesses to all other addresses
    ///   decode to exactly their own untouched row.
    /// * A fault row is a lane row when every overlay cell in it carries
    ///   a [`LanePlanes::supports`] fault other than coupling, no
    ///   coupling aggressor or decoder fault touches it, and it holds the
    ///   lane reset state: all zero, stuck-at-1 cells at 1. Any other
    ///   fault row is stepped.
    /// * Every other row with non-zero contents is `non_reset`.
    pub fn row_classes(&self) -> Option<RowClasses> {
        // Rows a fault reaches from outside their own cells, ascending.
        let mut reached = self.decoder.deviation_rows();
        reached.extend(self.coupling_index.keys().map(|&(row, _)| row));
        reached.sort_unstable();
        reached.dedup();
        let mut reached = reached.into_iter().peekable();
        let mut nonzero = self.planes.nonzero_rows().into_iter().peekable();
        let mut cells = self.overlay.iter().peekable();
        let mut classes = RowClasses {
            retention: self.retention,
            lane: Vec::new(),
            stepped: Vec::new(),
            non_reset: Vec::new(),
        };
        loop {
            let cell_row = cells.peek().map(|(&(row, _), _)| row);
            let Some(row) = [reached.peek().copied(), cell_row, nonzero.peek().copied()]
                .into_iter()
                .flatten()
                .min()
            else {
                return Some(classes);
            };
            let address = Address::new(row);
            let is_reached = reached.next_if_eq(&row).is_some();
            nonzero.next_if_eq(&row);
            if cell_row != Some(row) {
                if is_reached {
                    classes.stepped.push(address);
                } else {
                    classes.non_reset.push(address);
                }
                continue;
            }
            let mut lane = !is_reached;
            let mut faults = Vec::new();
            let mut reset = DataWord::zero(self.config.width());
            while let Some((&(_, bit), cell)) = cells.next_if(|&(&(r, _), _)| r == row) {
                match cell.fault() {
                    Some(CellFault::StuckOpen) => return None,
                    Some(fault)
                        if !fault.is_coupling()
                            && LanePlanes::supports(CellCoord::new(address, bit), &fault) =>
                    {
                        reset.set(bit, fault == CellFault::StuckAt(true));
                        faults.push((bit, fault));
                    }
                    _ => lane = false,
                }
            }
            if lane && self.planes.word_equals(row, &reset) {
                classes.lane.push((address, faults));
            } else {
                classes.stepped.push(address);
            }
        }
    }

    /// Captures into `state`, replacing what it held, the stored words of
    /// `rows`, their overlay cells and the last sensed word. When `rows`
    /// holds every row with an overlay cell and every row an access to
    /// them activates (the fault rows of [`Sram::row_classes`]), that is
    /// everything a walk of those rows reads or changes.
    pub fn capture_rows(&self, rows: &[Address], state: &mut RowState) {
        state.words.clear();
        state.cells.clear();
        for row in rows {
            let r = row.index();
            state.words.push(self.planes.word(r));
            if self.overlay_in_row(r) {
                state.cells.extend(
                    self.overlay
                        .range((r, 0)..=(r, usize::MAX))
                        .map(|(_, cell)| *cell),
                );
            }
        }
        state.words.push(self.last_sense.clone());
    }

    // ----------------------------------------------------------------
    // Port operations
    // ----------------------------------------------------------------

    /// Normal write cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the data width
    /// does not match the memory IO width.
    #[inline]
    pub fn write(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        self.config.check_address(address)?;
        self.config.check_width(data.width())?;
        self.apply_write(address, data, false);
        Ok(())
    }

    /// No Write Recovery Cycle write (the NWRTM special write of Sec. 3.4).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the data width
    /// does not match the memory IO width.
    #[inline]
    pub fn write_nwrc(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        self.config.check_address(address)?;
        self.config.check_width(data.width())?;
        self.apply_write(address, data, true);
        Ok(())
    }

    fn apply_write(&mut self, address: Address, data: &DataWord, nwrc: bool) {
        if !self.decoder.is_faulty() {
            self.write_row(address, data, nwrc);
        } else {
            for row in self.decoder.activated_rows(address) {
                self.write_row(row, data, nwrc);
            }
        }
    }

    /// Writes one activated row.
    #[inline]
    fn write_row(&mut self, row: Address, data: &DataWord, nwrc: bool) {
        let r = row.index();
        if self.coupling_index.is_empty() && !self.overlay_in_row(r) {
            // Fault-free fast path: a pure limb copy.
            self.planes.set_word(r, data);
        } else {
            self.write_row_slow(row, data, nwrc);
        }
    }

    /// Faulty-row write: routes overlay cells through their behavioural
    /// write semantics and evaluates coupling. Outlined so the
    /// fault-free fast path above stays small enough to inline.
    #[cold]
    fn write_row_slow(&mut self, row: Address, data: &DataWord, nwrc: bool) {
        let r = row.index();
        if self.coupling_index.is_empty() {
            // Bulk path: limb copy, then route the overlay cells of this
            // row through their behavioural write semantics.
            self.planes.set_word(r, data);
            // NB: `overlay` and `planes` are disjoint fields, so the
            // mirror update may run while iterating the overlay.
            let planes = &mut self.planes;
            for (&(_, bit), cell) in self.overlay.range_mut((r, 0)..=(r, usize::MAX)) {
                if nwrc {
                    cell.write_nwrc(data.bit(bit));
                } else {
                    cell.write(data.bit(bit));
                }
                planes.set_bit(r, bit, cell.stored());
            }
        } else {
            // Coupling faults present anywhere: per-bit order matters (a
            // victim later in the word must still be overwritten by its
            // own write after an earlier aggressor transition), so fall
            // back to the reference bit-by-bit semantics.
            for bit in 0..self.config.width() {
                let coord = CellCoord::new(row, bit);
                if let Some(rose) = self.write_cell(coord, data.bit(bit), nwrc) {
                    self.apply_coupling_from(coord, rose);
                }
            }
        }
    }

    /// Writes one cell; returns `Some(rose)` if its stored value changed.
    fn write_cell(&mut self, coord: CellCoord, value: bool, nwrc: bool) -> Option<bool> {
        let key = (coord.address.index(), coord.bit);
        if let Some(cell) = self.overlay.get_mut(&key) {
            let before = cell.stored();
            let changed = if nwrc {
                cell.write_nwrc(value)
            } else {
                cell.write(value)
            };
            self.planes.set_bit(key.0, key.1, cell.stored());
            changed.then_some(!before)
        } else if self.planes.bit(key.0, key.1) != value {
            self.planes.set_bit(key.0, key.1, value);
            Some(value)
        } else {
            None
        }
    }

    /// Forces a stored value onto one cell, honouring its fault (stuck-at
    /// cells keep their stuck value) and mirroring the planes.
    fn force_cell(&mut self, coord: CellCoord, value: bool) {
        let key = (coord.address.index(), coord.bit);
        if let Some(cell) = self.overlay.get_mut(&key) {
            cell.force(value);
            self.planes.set_bit(key.0, key.1, cell.stored());
        } else {
            self.planes.set_bit(key.0, key.1, value);
        }
    }

    /// Applies transition-sensitised coupling effects originating from
    /// the aggressor at `coord`.
    fn apply_coupling_from(&mut self, coord: CellCoord, aggressor_rose: bool) {
        let victims = match self.coupling_index.get(&(coord.address.index(), coord.bit)) {
            Some(v) => v.clone(),
            None => return,
        };
        for victim in victims {
            let fault = self
                .overlay
                .get(&(victim.address.index(), victim.bit))
                .and_then(Cell::fault);
            if let Some(CellFault::Coupling { kind, .. }) = fault {
                match kind {
                    CouplingKind::Idempotent {
                        aggressor_rises,
                        forced_value,
                    } => {
                        if aggressor_rises == aggressor_rose {
                            self.force_cell(victim, forced_value);
                        }
                    }
                    CouplingKind::Inversion { aggressor_rises } => {
                        if aggressor_rises == aggressor_rose {
                            let current = self.planes.bit(victim.address.index(), victim.bit);
                            self.force_cell(victim, !current);
                        }
                    }
                    CouplingKind::State { .. } => {
                        // State coupling is evaluated when the victim is read.
                    }
                }
            }
        }
    }

    /// Normal read cycle; returns the word observed at the port.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    #[inline]
    pub fn read(&mut self, address: Address) -> Result<DataWord, MemError> {
        self.config.check_address(address)?;
        Ok(self.observe(address))
    }

    #[inline]
    fn observe(&mut self, address: Address) -> DataWord {
        let observed = if !self.decoder.is_faulty() {
            self.observe_row(address.index())
        } else {
            self.observe_decoder_faulty(address)
        };
        self.last_sense.clone_from(&observed);
        observed
    }

    /// Observation through a faulty decoder (no-access or multi-access).
    #[cold]
    fn observe_decoder_faulty(&mut self, address: Address) -> DataWord {
        let width = self.config.width();
        let rows = self.decoder.activated_rows(address);
        if rows.is_empty() {
            // No word line activated: no cell discharges the precharged
            // bitlines, so the sense amplifiers read all ones.
            DataWord::splat(true, width)
        } else {
            // Multiple activated rows behave as a wired-AND on the
            // precharged bitlines.
            let mut word = DataWord::splat(true, width);
            for row in &rows {
                let row_word = self.observe_row(row.index());
                word.and_assign(&row_word);
            }
            word
        }
    }

    /// Observes one activated row, applying read-fault semantics to the
    /// overlay cells of the row.
    #[inline]
    fn observe_row(&mut self, r: u64) -> DataWord {
        if !self.overlay_in_row(r) {
            // Fault-free row: the sense amplifiers see the stored word.
            return self.planes.word(r);
        }
        self.observe_row_slow(r)
    }

    /// Faulty-row observation: walks the row's overlay cells in bit
    /// order, applying state coupling then read-fault semantics to each.
    /// Outlined so the fault-free fast path stays small enough to
    /// inline into the port `read`.
    #[cold]
    fn observe_row_slow(&mut self, r: u64) -> DataWord {
        let mut word = self.planes.word(r);
        // `overlay`, `planes` and `last_sense` are disjoint fields, so
        // the planes mirror updates while the row's cells are walked.
        let planes = &mut self.planes;
        for (&(_, bit), cell) in self.overlay.range_mut((r, 0)..=(r, usize::MAX)) {
            let observed_bit = match cell.fault() {
                // Stuck-open cell: the sense amplifier keeps its
                // previous value for this bit.
                Some(CellFault::StuckOpen) => self.last_sense.bit(bit),
                fault => {
                    // State coupling forces the victim just before it
                    // is observed.
                    if let Some(CellFault::Coupling {
                        aggressor,
                        kind:
                            CouplingKind::State {
                                aggressor_value,
                                forced_value,
                            },
                    }) = fault
                    {
                        if planes.bit(aggressor.address.index(), aggressor.bit) == aggressor_value {
                            cell.force(forced_value);
                            planes.set_bit(r, bit, cell.stored());
                        }
                    }
                    let outcome = cell.read();
                    planes.set_bit(r, bit, outcome.stored_after);
                    outcome.observed
                }
            };
            word.set(bit, observed_bit);
        }
        word
    }

    /// Fused read-and-compare cycle: performs a normal read and returns
    /// `Ok(None)` when the observed word equals `expected`, or
    /// `Ok(Some(observed))` on a mismatch.
    ///
    /// Behaviourally identical to [`Sram::read`] followed by a compare,
    /// but the fault-free fast path compares the packed plane limbs in
    /// place without materialising the observed word — the dominant
    /// operation of a fault-simulation campaign, where almost every read
    /// matches its expectation. The sense-amp state is maintained
    /// exactly as a plain read would maintain it (a stuck-open fault
    /// injected later must observe the true previous sense value).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    #[inline]
    pub fn read_expect(
        &mut self,
        address: Address,
        expected: &DataWord,
    ) -> Result<Option<DataWord>, MemError> {
        debug_assert_eq!(
            expected.width(),
            self.config.width(),
            "read_expect width mismatch"
        );
        self.config.check_address(address)?;
        let r = address.index();
        if !self.decoder.is_faulty() && !self.overlay_in_row(r) {
            // Fault-free fast path: the observed word is the stored word
            // and no read side effects mutate any cell, so a limb
            // compare suffices; the sense amplifiers still latch the
            // word, exactly as in a plain read.
            let matches = self
                .planes
                .compare_and_copy_row(r, expected, &mut self.last_sense);
            Ok(if matches { None } else { Some(self.planes.word(r)) })
        } else {
            let observed = self.observe(address);
            Ok(if &observed == expected {
                None
            } else {
                Some(observed)
            })
        }
    }

    /// Retention pause of `pause_ms` milliseconds.
    ///
    /// Cells with data-retention faults whose defective node currently
    /// holds the value decay once the pause reaches the retention
    /// model's decay threshold. Only the (sparse) overlay cells are
    /// visited, so pauses are O(faults), not O(cells).
    pub fn elapse_retention(&mut self, pause_ms: f64) {
        let threshold = self.retention.decay_threshold_ms;
        let planes = &mut self.planes;
        for (&(row, bit), cell) in self.overlay.iter_mut() {
            if cell.elapse_retention(pause_ms, threshold) {
                planes.set_bit(row, bit, cell.stored());
            }
        }
    }

    // ----------------------------------------------------------------
    // Non-invasive inspection (test and repair support)
    // ----------------------------------------------------------------

    /// Returns the stored word at `address` without performing a port
    /// read (no read-fault side effects).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    #[inline]
    pub fn peek(&self, address: Address) -> Result<DataWord, MemError> {
        self.config.check_address(address)?;
        Ok(self.planes.word(address.index()))
    }

    /// Returns the stored value of one cell without side effects.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate is out of range.
    pub fn peek_cell(&self, coord: CellCoord) -> Result<bool, MemError> {
        self.check_coord(coord)?;
        Ok(self.planes.bit(coord.address.index(), coord.bit))
    }

    /// Forces the stored word at `address`, bypassing write-fault
    /// semantics (used to set up test scenarios).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the width does
    /// not match.
    pub fn force_word(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        self.config.check_address(address)?;
        self.config.check_width(data.width())?;
        let r = address.index();
        self.planes.set_word(r, data);
        if self.overlay_in_row(r) {
            let planes = &mut self.planes;
            for (&(_, bit), cell) in self.overlay.range_mut((r, 0)..=(r, usize::MAX)) {
                cell.force(data.bit(bit));
                planes.set_bit(r, bit, cell.stored());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellNode;
    use crate::decoder::DecoderFaultKind;

    fn small() -> Sram {
        Sram::new(MemConfig::new(8, 4).unwrap())
    }

    #[test]
    fn fault_free_memory_round_trips_every_word() {
        let mut sram = small();
        for a in 0..8u64 {
            let data = DataWord::from_u64(a ^ 0b1010, 4);
            sram.write(Address::new(a), &data).unwrap();
        }
        for a in 0..8u64 {
            let data = DataWord::from_u64(a ^ 0b1010, 4);
            assert_eq!(sram.read(Address::new(a)).unwrap(), data);
        }
    }

    #[test]
    fn width_and_address_validation() {
        let mut sram = small();
        assert!(matches!(
            sram.write(Address::new(9), &DataWord::zero(4)),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            sram.write(Address::new(0), &DataWord::zero(5)),
            Err(MemError::WidthMismatch { .. })
        ));
        assert!(sram.read(Address::new(8)).is_err());
    }

    #[test]
    fn stuck_at_cell_visible_at_port() {
        let mut sram = small();
        sram.inject_cell_fault(CellCoord::new(Address::new(2), 3), CellFault::StuckAt(true))
            .unwrap();
        sram.write(Address::new(2), &DataWord::zero(4)).unwrap();
        let observed = sram.read(Address::new(2)).unwrap();
        assert!(observed.bit(3));
        assert_eq!(observed.mismatches(&DataWord::zero(4)), vec![3]);
    }

    #[test]
    fn decoder_no_access_fault_loses_writes_and_reads_precharged_ones() {
        let mut sram = small();
        sram.inject_decoder_fault(DecoderFault::new(Address::new(1), DecoderFaultKind::NoAccess))
            .unwrap();
        sram.write(Address::new(1), &DataWord::zero(4)).unwrap();
        // No word line is activated, so the precharged bitlines read as ones.
        assert_eq!(sram.read(Address::new(1)).unwrap(), DataWord::splat(true, 4));
        // And the cells of address 1 were never written.
        assert_eq!(sram.peek(Address::new(1)).unwrap(), DataWord::zero(4));
    }

    #[test]
    fn decoder_maps_to_fault_redirects_traffic() {
        let mut sram = small();
        sram.inject_decoder_fault(DecoderFault::new(
            Address::new(2),
            DecoderFaultKind::MapsTo(Address::new(5)),
        ))
        .unwrap();
        sram.write(Address::new(2), &DataWord::splat(true, 4)).unwrap();
        assert_eq!(sram.peek(Address::new(2)).unwrap(), DataWord::zero(4));
        assert_eq!(sram.peek(Address::new(5)).unwrap(), DataWord::splat(true, 4));
        assert_eq!(sram.read(Address::new(2)).unwrap(), DataWord::splat(true, 4));
    }

    #[test]
    fn decoder_multi_access_reads_as_wired_and() {
        let mut sram = small();
        sram.inject_decoder_fault(DecoderFault::new(
            Address::new(3),
            DecoderFaultKind::AlsoAccesses(Address::new(4)),
        ))
        .unwrap();
        // Address 4 holds zeros, address 3 written with ones through the
        // faulty decoder writes both rows; then corrupt row 4 directly.
        sram.write(Address::new(3), &DataWord::splat(true, 4)).unwrap();
        assert_eq!(sram.peek(Address::new(4)).unwrap(), DataWord::splat(true, 4));
        sram.force_word(Address::new(4), &DataWord::from_u64(0b0101, 4))
            .unwrap();
        let observed = sram.read(Address::new(3)).unwrap();
        assert_eq!(observed, DataWord::from_u64(0b0101, 4));
    }

    #[test]
    fn idempotent_coupling_triggers_on_matching_transition_only() {
        let mut sram = small();
        let aggressor = CellCoord::new(Address::new(1), 0);
        let victim = CellCoord::new(Address::new(6), 2);
        sram.inject_cell_fault(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: CouplingKind::Idempotent {
                    aggressor_rises: true,
                    forced_value: true,
                },
            },
        )
        .unwrap();
        // Falling transition of the aggressor: no effect.
        sram.write(Address::new(1), &DataWord::zero(4)).unwrap();
        assert!(!sram.peek_cell(victim).unwrap());
        // Rising transition of the aggressor bit 0: victim forced to 1.
        sram.write(Address::new(1), &DataWord::from_u64(0b0001, 4))
            .unwrap();
        assert!(sram.peek_cell(victim).unwrap());
    }

    #[test]
    fn inversion_coupling_inverts_victim_on_each_matching_transition() {
        let mut sram = small();
        let aggressor = CellCoord::new(Address::new(0), 1);
        let victim = CellCoord::new(Address::new(7), 3);
        sram.inject_cell_fault(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: CouplingKind::Inversion {
                    aggressor_rises: false,
                },
            },
        )
        .unwrap();
        // Rise (not sensitising), then fall (sensitising) twice.
        sram.write(Address::new(0), &DataWord::from_u64(0b0010, 4))
            .unwrap();
        assert!(!sram.peek_cell(victim).unwrap());
        sram.write(Address::new(0), &DataWord::zero(4)).unwrap();
        assert!(sram.peek_cell(victim).unwrap());
        sram.write(Address::new(0), &DataWord::from_u64(0b0010, 4))
            .unwrap();
        sram.write(Address::new(0), &DataWord::zero(4)).unwrap();
        assert!(!sram.peek_cell(victim).unwrap());
    }

    #[test]
    fn state_coupling_forces_victim_while_aggressor_holds_state() {
        let mut sram = small();
        let aggressor = CellCoord::new(Address::new(2), 0);
        let victim = CellCoord::new(Address::new(5), 1);
        sram.inject_cell_fault(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: CouplingKind::State {
                    aggressor_value: true,
                    forced_value: false,
                },
            },
        )
        .unwrap();
        // Victim written to 1 while aggressor is 0: reads back 1.
        sram.write(Address::new(5), &DataWord::from_u64(0b0010, 4))
            .unwrap();
        assert!(sram.read(Address::new(5)).unwrap().bit(1));
        // Aggressor set to 1: victim reads as forced 0.
        sram.write(Address::new(2), &DataWord::from_u64(0b0001, 4))
            .unwrap();
        assert!(!sram.read(Address::new(5)).unwrap().bit(1));
    }

    #[test]
    fn drf_cell_passes_at_speed_but_fails_after_retention_pause() {
        let mut sram = small();
        let coord = CellCoord::new(Address::new(4), 0);
        sram.inject_cell_fault(coord, CellFault::DataRetention { node: CellNode::A })
            .unwrap();
        sram.write(Address::new(4), &DataWord::splat(true, 4)).unwrap();
        assert!(sram.read(Address::new(4)).unwrap().bit(0)); // at-speed pass
        sram.elapse_retention(100.0);
        assert!(!sram.read(Address::new(4)).unwrap().bit(0)); // decayed
    }

    #[test]
    fn nwrc_write_exposes_drf_without_pause() {
        let mut sram = small();
        let coord = CellCoord::new(Address::new(4), 2);
        sram.inject_cell_fault(coord, CellFault::DataRetention { node: CellNode::A })
            .unwrap();
        sram.write(Address::new(4), &DataWord::zero(4)).unwrap();
        sram.write_nwrc(Address::new(4), &DataWord::splat(true, 4))
            .unwrap();
        let observed = sram.read(Address::new(4)).unwrap();
        assert!(!observed.bit(2)); // DRF cell failed to flip under NWRC
        assert!(observed.bit(0) && observed.bit(1) && observed.bit(3)); // good cells flipped
    }

    #[test]
    fn stuck_open_cell_returns_previous_sense_value() {
        let mut sram = small();
        sram.inject_cell_fault(CellCoord::new(Address::new(1), 1), CellFault::StuckOpen)
            .unwrap();
        // Prime sense amp bit 1 with a one from another address.
        sram.write(Address::new(0), &DataWord::splat(true, 4)).unwrap();
        sram.read(Address::new(0)).unwrap();
        sram.write(Address::new(1), &DataWord::zero(4)).unwrap();
        let observed = sram.read(Address::new(1)).unwrap();
        assert!(observed.bit(1)); // bit 1 repeats the stale sense value
        assert!(!observed.bit(0));
    }

    #[test]
    fn clear_faults_restores_fault_free_behaviour() {
        let mut sram = small();
        sram.inject_cell_fault(CellCoord::new(Address::new(0), 0), CellFault::StuckAt(true))
            .unwrap();
        sram.inject_decoder_fault(DecoderFault::new(Address::new(1), DecoderFaultKind::NoAccess))
            .unwrap();
        assert!(sram.is_faulty());
        sram.clear_faults();
        assert!(!sram.is_faulty());
        sram.write(Address::new(0), &DataWord::zero(4)).unwrap();
        assert_eq!(sram.read(Address::new(0)).unwrap(), DataWord::zero(4));
    }

    #[test]
    fn cell_faults_listing_reports_coordinates_in_order() {
        let mut sram = small();
        sram.inject_cell_fault(CellCoord::new(Address::new(5), 3), CellFault::StuckAt(false))
            .unwrap();
        sram.inject_cell_fault(CellCoord::new(Address::new(1), 0), CellFault::TransitionUp)
            .unwrap();
        let faults = sram.cell_faults();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].0, CellCoord::new(Address::new(1), 0));
        assert_eq!(faults[1].0, CellCoord::new(Address::new(5), 3));
    }

    #[test]
    fn force_word_is_visible_to_peek() {
        let mut sram = small();
        sram.force_word(Address::new(3), &DataWord::splat(true, 4))
            .unwrap();
        assert_eq!(sram.peek(Address::new(3)).unwrap(), DataWord::splat(true, 4));
    }

    #[test]
    fn stuck_open_injected_after_reads_observes_true_previous_sense_value() {
        // The sense-amp state must be maintained even while no
        // stuck-open cell exists yet: a fault injected mid-run observes
        // the genuinely last-sensed word, identically to the dense
        // reference model. (Both plain reads and the fused read_expect
        // fast path latch the sense amplifiers.)
        let mut packed = small();
        let mut dense = crate::reference::ReferenceSram::new(MemConfig::new(8, 4).unwrap());
        let ones = DataWord::splat(true, 4);
        for mem in [0, 1] {
            // Prime the sense amps with ones via a read of address 0.
            if mem == 0 {
                packed.write(Address::new(0), &ones).unwrap();
                // Exercise the fused fast path for the priming read.
                assert_eq!(packed.read_expect(Address::new(0), &ones).unwrap(), None);
            } else {
                dense.write(Address::new(0), &ones).unwrap();
                dense.read(Address::new(0)).unwrap();
            }
        }
        let site = CellCoord::new(Address::new(1), 2);
        packed.inject_cell_fault(site, CellFault::StuckOpen).unwrap();
        dense.inject_cell_fault(site, CellFault::StuckOpen).unwrap();
        packed.write(Address::new(1), &DataWord::zero(4)).unwrap();
        dense.write(Address::new(1), &DataWord::zero(4)).unwrap();
        let from_packed = packed.read(Address::new(1)).unwrap();
        let from_dense = dense.read(Address::new(1)).unwrap();
        assert_eq!(from_packed, from_dense);
        assert!(from_packed.bit(2), "bit 2 must repeat the stale sensed one");
        assert!(!from_packed.bit(0));
    }

    #[test]
    fn captured_rows_track_their_words_cells_and_the_sensed_word() {
        let mut sram = small();
        let drf = CellCoord::new(Address::new(2), 1);
        sram.inject_cell_fault(drf, CellFault::DataRetention { node: CellNode::A })
            .unwrap();
        let rows = [Address::new(2), Address::new(5)];
        let capture = |sram: &Sram| {
            let mut state = RowState::default();
            sram.capture_rows(&rows, &mut state);
            state
        };
        let start = capture(&sram);
        let (zeros, ones) = (DataWord::zero(4), DataWord::splat(true, 4));
        // An unlisted row plays no part.
        sram.force_word(Address::new(0), &ones).unwrap();
        assert_eq!(capture(&sram), start);
        // A listed row's word does.
        sram.write(Address::new(5), &ones).unwrap();
        assert_ne!(capture(&sram), start);
        sram.write(Address::new(5), &zeros).unwrap();
        assert_eq!(capture(&sram), start);
        // So does the sensed word, which any read latches.
        sram.read(Address::new(0)).unwrap();
        assert_ne!(capture(&sram), start);
        sram.read(Address::new(5)).unwrap();
        assert_eq!(capture(&sram), start);
        // A decayed cell differs even where its stored value is back.
        sram.write(Address::new(2), &DataWord::from_u64(0b0010, 4))
            .unwrap();
        sram.elapse_retention(100.0);
        assert_eq!(sram.peek(Address::new(2)).unwrap(), zeros);
        assert_ne!(capture(&sram), start);
    }

    #[test]
    fn reset_restores_pristine_power_on_state() {
        let mut sram = small();
        sram.inject_cell_fault(CellCoord::new(Address::new(1), 1), CellFault::StuckAt(true))
            .unwrap();
        sram.inject_decoder_fault(DecoderFault::new(Address::new(2), DecoderFaultKind::NoAccess))
            .unwrap();
        sram.write(Address::new(0), &DataWord::splat(true, 4)).unwrap();
        sram.reset();
        assert!(!sram.is_faulty());
        for a in 0..8u64 {
            assert_eq!(sram.peek(Address::new(a)).unwrap(), DataWord::zero(4));
        }
        // After a reset the memory behaves exactly like a fresh one.
        sram.write(Address::new(2), &DataWord::splat(true, 4)).unwrap();
        assert_eq!(sram.read(Address::new(2)).unwrap(), DataWord::splat(true, 4));
    }

    #[test]
    fn wide_words_round_trip_across_limb_boundaries() {
        let config = MemConfig::new(4, 100).unwrap();
        let mut sram = Sram::new(config);
        let mut pattern = DataWord::zero(100);
        for bit in [0usize, 31, 63, 64, 65, 99] {
            pattern.set(bit, true);
        }
        sram.write(Address::new(1), &pattern).unwrap();
        assert_eq!(sram.read(Address::new(1)).unwrap(), pattern);
        assert_eq!(sram.peek(Address::new(1)).unwrap(), pattern);
        assert_eq!(sram.read(Address::new(0)).unwrap(), DataWord::zero(100));
    }

    /// The `[lane, stepped, non_reset]` rows of `sram`'s classes, as
    /// row numbers.
    fn class_rows(sram: &Sram) -> Option<[Vec<u64>; 3]> {
        let classes = sram.row_classes()?;
        let indices = |rows: &[Address]| rows.iter().map(|row| row.index()).collect();
        let lane: Vec<Address> = classes.lane.iter().map(|(row, _)| *row).collect();
        Some([
            indices(&lane),
            indices(&classes.stepped),
            indices(&classes.non_reset),
        ])
    }

    /// The fault rows of `sram`, lane and stepped rows together, ascending.
    fn fault_row_numbers(sram: &Sram) -> Option<Vec<u64>> {
        let [lane, stepped, _] = class_rows(sram)?;
        let mut rows = [lane, stepped].concat();
        rows.sort_unstable();
        Some(rows)
    }

    #[test]
    fn row_classes_split_pristine_non_reset_lane_and_coupling_rows() {
        let config = MemConfig::new(16, 4).unwrap();
        let mut sram = Sram::new(config);
        assert_eq!(class_rows(&sram), Some([vec![], vec![], vec![]]));

        // Written (non-zero) contents make a fault-free row non-reset:
        // an ideal model expecting power-on zeros would mispredict a read
        // of row 5.
        sram.write(Address::new(5), &DataWord::splat(true, 4)).unwrap();
        assert_eq!(class_rows(&sram), Some([vec![], vec![], vec![5]]));
        // Writing the row back to zero restores pristineness.
        sram.write(Address::new(5), &DataWord::zero(4)).unwrap();
        assert_eq!(class_rows(&sram), Some([vec![], vec![], vec![]]));

        // Plain cell faults confine deviation to their own rows.
        sram.inject_cell_fault(CellCoord::new(Address::new(9), 2), CellFault::TransitionUp)
            .unwrap();
        assert_eq!(class_rows(&sram), Some([vec![9], vec![], vec![]]));

        // A coupling victim drags its aggressor's row in as well: the
        // aggressor's write transitions (and, for state coupling, its
        // stored value) must be replayed for the victim to misbehave.
        sram.inject_cell_fault(
            CellCoord::new(Address::new(2), 0),
            CellFault::Coupling {
                aggressor: CellCoord::new(Address::new(12), 3),
                kind: CouplingKind::State {
                    aggressor_value: true,
                    forced_value: false,
                },
            },
        )
        .unwrap();
        assert_eq!(class_rows(&sram), Some([vec![9], vec![2, 12], vec![]]));
    }

    #[test]
    fn lane_class_holds_single_cell_faults_at_reset_contents() {
        let config = MemConfig::new(16, 4).unwrap();
        let cell = |row: u64, bit: usize| CellCoord::new(Address::new(row), bit);
        let mut sram = Sram::new(config);
        // Row 1: two lane faults, stuck-at-1 at its pinned reset value.
        sram.inject_cell_fault(cell(1, 0), CellFault::StuckAt(true))
            .unwrap();
        sram.inject_cell_fault(cell(1, 2), CellFault::TransitionDown)
            .unwrap();
        // Row 3: a lane fault in a row holding written contents.
        sram.inject_cell_fault(cell(3, 1), CellFault::ReadDestructive)
            .unwrap();
        sram.write(Address::new(3), &DataWord::splat(true, 4)).unwrap();
        // Rows 5 and 6: a coupling victim and its aggressor.
        let coupling = CellFault::Coupling {
            aggressor: cell(6, 3),
            kind: CouplingKind::Inversion {
                aggressor_rises: true,
            },
        };
        sram.inject_cell_fault(cell(5, 0), coupling).unwrap();
        sram.inject_cell_fault(cell(6, 1), CellFault::StuckAt(false))
            .unwrap();
        // Row 8: a lane fault in a decoder fault's row.
        sram.inject_cell_fault(cell(8, 2), CellFault::IncorrectRead)
            .unwrap();
        sram.inject_decoder_fault(DecoderFault::new(Address::new(8), DecoderFaultKind::NoAccess))
            .unwrap();
        let classes = sram.row_classes().expect("no stuck-open cell");
        assert_eq!(classes.retention, sram.retention());
        assert_eq!(
            classes.lane,
            vec![(
                Address::new(1),
                vec![(0, CellFault::StuckAt(true)), (2, CellFault::TransitionDown)]
            )]
        );
        assert_eq!(class_rows(&sram), Some([vec![1], vec![3, 5, 6, 8], vec![]]));
        // A stuck-open cell anywhere declines every row.
        sram.inject_cell_fault(cell(12, 0), CellFault::StuckOpen).unwrap();
        assert_eq!(sram.row_classes(), None);
    }

    #[test]
    fn fault_classes_bound_each_fault_and_ignore_stored_contents() {
        let config = MemConfig::new(16, 4).unwrap();

        // Dirty contents in fault-free rows are not fault rows; they are
        // the non-reset class.
        let mut sram = Sram::new(config);
        sram.write(Address::new(5), &DataWord::splat(true, 4)).unwrap();
        assert_eq!(fault_row_numbers(&sram), Some(vec![]));
        assert_eq!(class_rows(&sram), Some([vec![], vec![], vec![5]]));
        sram.inject_cell_fault(CellCoord::new(Address::new(9), 1), CellFault::StuckAt(true))
            .unwrap();
        assert_eq!(fault_row_numbers(&sram), Some(vec![9]));
        assert_eq!(class_rows(&sram), Some([vec![9], vec![], vec![5]]));

        // An inter-row coupling fault gives its victim and aggressor rows.
        let mut coupled = Sram::new(config);
        coupled
            .inject_cell_fault(
                CellCoord::new(Address::new(11), 0),
                CellFault::Coupling {
                    aggressor: CellCoord::new(Address::new(4), 3),
                    kind: CouplingKind::Inversion {
                        aggressor_rises: true,
                    },
                },
            )
            .unwrap();
        assert_eq!(fault_row_numbers(&coupled), Some(vec![4, 11]));

        // A maps-to or also-accesses decoder fault gives the corrupted
        // address and the row it drags in.
        for kind in [
            crate::decoder::DecoderFaultKind::MapsTo(Address::new(2)),
            crate::decoder::DecoderFaultKind::AlsoAccesses(Address::new(2)),
        ] {
            let mut decoder = Sram::new(config);
            decoder
                .inject_decoder_fault(DecoderFault::new(Address::new(13), kind))
                .unwrap();
            assert_eq!(fault_row_numbers(&decoder), Some(vec![2, 13]), "{kind}");
        }

        // A stuck-open cell echoes the sense amplifier, which every
        // row's read updates: no row set bounds it.
        sram.inject_cell_fault(CellCoord::new(Address::new(3), 0), CellFault::StuckOpen)
            .unwrap();
        assert_eq!(fault_row_numbers(&sram), None);
    }

    #[test]
    fn stuck_open_makes_the_profile_opaque() {
        let config = MemConfig::new(16, 4).unwrap();
        // Stuck-open reads echo the sense amplifier's previous value,
        // which every read of every row updates — no row locality.
        let mut stuck_open = Sram::new(config);
        stuck_open
            .inject_cell_fault(CellCoord::new(Address::new(3), 1), CellFault::StuckOpen)
            .unwrap();
        assert_eq!(stuck_open.row_classes(), None);
    }

    #[test]
    fn decoder_faults_confine_deviation_to_the_rows_they_drag_in() {
        let config = MemConfig::new(16, 4).unwrap();

        // No-access: only the corrupted address misbehaves (reads
        // return the precharged all-ones word, writes are lost).
        let mut no_access = Sram::new(config);
        no_access
            .inject_decoder_fault(DecoderFault::new(
                Address::new(7),
                crate::decoder::DecoderFaultKind::NoAccess,
            ))
            .unwrap();
        assert_eq!(class_rows(&no_access), Some([vec![], vec![7], vec![]]));

        // Maps-to: the corrupted address reads/writes the target row,
        // so the target's contents can deviate too — both are stepped.
        let mut maps_to = Sram::new(config);
        maps_to
            .inject_decoder_fault(DecoderFault::new(
                Address::new(3),
                crate::decoder::DecoderFaultKind::MapsTo(Address::new(9)),
            ))
            .unwrap();
        assert_eq!(class_rows(&maps_to), Some([vec![], vec![3, 9], vec![]]));

        // Also-accesses: wired-AND reads and double writes involve the
        // corrupted address and the extra row, nothing else.
        let mut also = Sram::new(config);
        also.inject_decoder_fault(DecoderFault::new(
            Address::new(2),
            crate::decoder::DecoderFaultKind::AlsoAccesses(Address::new(5)),
        ))
        .unwrap();
        assert_eq!(class_rows(&also), Some([vec![], vec![2, 5], vec![]]));
    }
}
