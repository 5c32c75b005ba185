//! March memory-test notation, algorithm library and fault simulator.
//!
//! March tests are the workhorse of memory BIST: a sequence of *March
//! elements*, each applying a short read/write sequence to every address
//! in a given order. This crate provides:
//!
//! * the notation ([`MarchOp`], [`MarchElement`], [`MarchTest`]) including
//!   the paper-specific extensions — *No Write Recovery Cycles* (NWRC)
//!   from the NWRTM DFT technique and retention pauses for classical
//!   DRF testing;
//! * an algorithm library ([`algorithms`]): MATS+, March C−, March CW
//!   (March C− with multiple data backgrounds, as used by the proposed
//!   scheme), the RSMarch/DiagRSMarch family used by the baseline
//!   architecture of \[7,8\], and NWRTM / retention-pause DRF variants;
//! * a word-oriented execution engine ([`MarchRunner`]) that applies a
//!   test to a behavioural [`sram_model::Sram`] and records each read
//!   mismatch ([`FailureRecord`]) by its detecting operation, address
//!   and failing bits, from which the schedule rebuilds the expected
//!   and observed words;
//! * a RAMSES-style fault simulator ([`FaultSimulator`]) that returns
//!   each fault's distinct failing cells and measures detection and
//!   location coverage of a March test over a fault universe,
//!   reproducing the coverage comparison of the paper's Sec. 4.1.
//!
//! # Example
//!
//! ```
//! use march::{algorithms, FaultSimulator, DataBackground};
//! use fault_models::FaultUniverse;
//! use sram_model::MemConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemConfig::new(16, 4)?;
//! let test = algorithms::march_c_minus();
//! let simulator = FaultSimulator::new(config);
//! let report = simulator.coverage(
//!     &test,
//!     &FaultUniverse::new(config).stuck_at(),
//!     &[DataBackground::Solid],
//! );
//! assert_eq!(report.total(), 16 * 4 * 2);
//! assert!(report.detection_coverage() > 0.99);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod algorithms;
pub mod background;
pub mod coverage;
pub mod engine;
pub mod fault_sim;
pub mod kernel;
pub mod ops;
pub mod schedule;

pub use background::{BackgroundPatterns, DataBackground};
pub use coverage::{ClassCoverage, CoverageReport};
pub use engine::{FailureRecord, MarchRunner, RunOutcome};
pub use esram_exec::{ShardPlan, ShardStrategy};
pub use fault_sim::{FaultSimOutcome, FaultSimulator};
pub use kernel::FaultSimKernel;
pub use ops::{AddressOrder, MarchElement, MarchOp, MarchTest};
pub use schedule::{MarchSchedule, SchedulePatterns, SchedulePhase};
