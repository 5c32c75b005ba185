//! Measured-cost calibration for the executor's shard cost models.
//!
//! The cost-balanced partition ([`crate::plan::cost_ranges`]) balances
//! *estimated* per-item costs.
//! Until this module existed every call site hard-coded its own
//! estimate: the fault simulator charged one unit per row swept,
//! diagnosis charged `io_width + 4`, the SoC builder charged one unit
//! per cell. Those hand-tuned models get the *shape* of the skew right
//! but not the scale — and once heterogeneous jobs from different
//! subsystems are flattened into one executor run (fleet batching), the
//! scales must be commensurable or the balancer starves one subsystem
//! to overfeed another.
//!
//! A [`CostCalibration`] table maps each [`CostDomain`] to an affine
//! model `cost(units) = fixed + unit · units`, in picoseconds, where
//! `units` is the call site's existing physical measure (rows swept,
//! data bits, cells). [`CALIB_ENV`] selects one of two tables:
//!
//! * **measured** (the default) — one committed table of weights
//!   derived once from benchmark timings (see
//!   [`CostCalibration::measured`]);
//! * **hand-tuned** — the pre-calibration constants, kept as the
//!   reference point ablations compare against.
//!
//! Calibration influences **shard boundaries only, never results**: the
//! executors guarantee byte-identical output at any cost model (the
//! cost closure cannot touch the work closure's inputs), so a wildly
//! wrong calibration costs wall-clock time, not correctness. The
//! determinism suites exercise exactly this freedom by sweeping worker
//! counts over fixed inputs.

use crate::env;

/// Environment variable selecting the calibration table: `hand-tuned`
/// (alias `model`, `off`) or `measured` (alias `baked`, the default),
/// case-insensitive. A set-but-malformed value falls back to the
/// default with a one-time warning, like every other `ESRAM_*` knob.
pub const CALIB_ENV: &str = "ESRAM_COST_CALIB";

/// Which subsystem a work item belongs to, i.e. which row of the
/// calibration table prices it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostDomain {
    /// March fault simulation; one unit = one row swept (the fault
    /// simulator's pruned-sweep row count).
    FaultSim,
    /// Population diagnosis; one unit = one bit of a member's I/O
    /// width (serial-interface delivery dominates per-bit work).
    Diagnosis,
    /// SoC population construction; one unit = one memory cell.
    SocBuild,
}

/// Affine per-item cost model for one domain: `fixed + unit · units`,
/// both in picoseconds (hand-tuned weights use dimensionless units —
/// only ratios within and across domains matter to the balancer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainWeights {
    /// Cost charged per work item regardless of size (setup, golden
    /// reset, per-memory bookkeeping).
    pub fixed: u64,
    /// Cost charged per unit of the domain's physical measure.
    pub unit: u64,
}

impl DomainWeights {
    /// Prices an item of the given size.
    pub fn cost(&self, units: u64) -> u64 {
        self.fixed.saturating_add(self.unit.saturating_mul(units))
    }
}

/// Which calibration table is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CalibrationMode {
    /// The pre-calibration hand-tuned constants.
    HandTuned,
    /// The committed measured table.
    #[default]
    Measured,
}

impl CalibrationMode {
    /// Parses an environment-variable value (case-insensitive,
    /// surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "hand-tuned" | "handtuned" | "hand" | "model" | "off" => Some(CalibrationMode::HandTuned),
            "measured" | "baked" => Some(CalibrationMode::Measured),
            _ => None,
        }
    }

    /// The mode selected by [`CALIB_ENV`], defaulting to
    /// [`CalibrationMode::Measured`] when unset; a set-but-malformed
    /// value warns once and takes the same default.
    pub fn from_env() -> Self {
        let raw = std::env::var(CALIB_ENV).ok();
        env::read_knob(CALIB_ENV, raw.as_deref(), CalibrationMode::parse, || {
            format!("the default calibration ({:?})", CalibrationMode::default())
        })
        .unwrap_or_default()
    }
}

/// One calibration table: a [`DomainWeights`] row per [`CostDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostCalibration {
    /// Fault-simulation weights (units: rows swept).
    pub sim: DomainWeights,
    /// Diagnosis weights (units: I/O-width bits).
    pub diag: DomainWeights,
    /// SoC-build weights (units: cells).
    pub build: DomainWeights,
}

impl CostCalibration {
    /// The pre-calibration constants: fault sim charged its pruned row
    /// count, diagnosis charged `io_width + 4`, the builder charged the
    /// cell count. Reproduces the historical shard boundaries exactly.
    pub const fn hand_tuned() -> Self {
        CostCalibration {
            sim: DomainWeights { fixed: 0, unit: 1 },
            diag: DomainWeights { fixed: 4, unit: 1 },
            build: DomainWeights { fixed: 0, unit: 1 },
        }
    }

    /// The committed measured table, in picoseconds.
    ///
    /// Derived once from the benchmark ledger's mean timings (1 thread,
    /// 512 memories of 512 words × 100 bits):
    ///
    /// * `sim.unit` — the heterogeneous whole-universe sweep divided by
    ///   its modeled row units (360 single-row + 40 full-sweep faults);
    ///   `sim.fixed` — the benchmark-scale per-fault mean minus one row
    ///   unit, the setup cost of a mostly-pruned fault.
    /// * `diag.unit` — the 100-bit PSC serialisation per bit;
    ///   `diag.fixed` — the per-memory sequential diagnosis mean minus
    ///   the width's worth of per-bit cost. Fixed cost dominating width
    ///   cost is the biggest departure from the hand-tuned model.
    /// * `build.unit` — the per-cell sequential SoC build; construction
    ///   is cell-dominated, so `build.fixed` is 0.
    pub const fn measured() -> Self {
        CostCalibration {
            sim: DomainWeights {
                fixed: 389_807,
                unit: 1_194_837,
            },
            diag: DomainWeights {
                fixed: 6_821_638,
                unit: 9_170,
            },
            build: DomainWeights { fixed: 0, unit: 65 },
        }
    }

    /// The table selected by [`CALIB_ENV`].
    pub fn current() -> Self {
        match CalibrationMode::from_env() {
            CalibrationMode::HandTuned => Self::hand_tuned(),
            CalibrationMode::Measured => Self::measured(),
        }
    }

    /// The weights row for a domain.
    pub fn weights(&self, domain: CostDomain) -> DomainWeights {
        match domain {
            CostDomain::FaultSim => self.sim,
            CostDomain::Diagnosis => self.diag,
            CostDomain::SocBuild => self.build,
        }
    }

    /// Prices an item of `units` size in the given domain.
    pub fn cost(&self, domain: CostDomain, units: u64) -> u64 {
        self.weights(domain).cost(units)
    }
}

impl Default for CostCalibration {
    /// The active table (same as [`CostCalibration::current`]).
    fn default() -> Self {
        Self::current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_tuned_reproduces_the_legacy_constants() {
        let table = CostCalibration::hand_tuned();
        // Fault sim charged exactly its row count.
        assert_eq!(table.cost(CostDomain::FaultSim, 1), 1);
        assert_eq!(table.cost(CostDomain::FaultSim, 512), 512);
        // Diagnosis charged io_width + 4.
        assert_eq!(table.cost(CostDomain::Diagnosis, 100), 104);
        // Build charged the cell count.
        assert_eq!(table.cost(CostDomain::SocBuild, 51_200), 51_200);
    }

    #[test]
    fn measured_table_pins_the_committed_weights() {
        let table = CostCalibration::measured();
        assert_eq!(
            table.sim,
            DomainWeights {
                fixed: 389_807,
                unit: 1_194_837
            }
        );
        assert_eq!(
            table.diag,
            DomainWeights {
                fixed: 6_821_638,
                unit: 9_170
            }
        );
        assert_eq!(table.build, DomainWeights { fixed: 0, unit: 65 });
        // The per-memory fixed cost dominating the per-bit cost is the
        // point of measuring: a 100-bit memory is nowhere near 100×
        // cheaper than nothing.
        assert!(table.diag.fixed > table.diag.unit * 100);
        // A full-sweep 512-word fault must still dwarf a pruned one.
        assert!(table.cost(CostDomain::FaultSim, 512) > table.cost(CostDomain::FaultSim, 1) * 20);
    }

    #[test]
    fn mode_parses_case_insensitively_and_rejects_garbage() {
        assert_eq!(
            CalibrationMode::parse(" Measured "),
            Some(CalibrationMode::Measured)
        );
        assert_eq!(
            CalibrationMode::parse("hand-tuned"),
            Some(CalibrationMode::HandTuned)
        );
        assert_eq!(CalibrationMode::parse("OFF"), Some(CalibrationMode::HandTuned));
        assert_eq!(CalibrationMode::parse("online"), None);
        assert_eq!(CalibrationMode::parse("onlien"), None);
        assert_eq!(CalibrationMode::parse(""), None);
    }
}
