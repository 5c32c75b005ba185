//! Fault taxonomy, fault lists and random defect injection for embedded
//! SRAM diagnosis.
//!
//! This crate sits between the behavioural memory model
//! ([`sram_model`]) and the March-test engine: it defines the
//! manufacturing-oriented fault classes used by the DATE 2005 paper's
//! evaluation, maps them onto per-cell / per-decoder behavioural faults,
//! generates exhaustive fault universes for coverage analysis, and
//! injects random defect populations ("1 % of the memory cells are
//! defective and all four different defect types in \[8\] occur with equal
//! likelihood") for statistical diagnosis-time experiments.
//!
//! # Example
//!
//! ```
//! use fault_models::{DefectProfile, FaultInjector};
//! use sram_model::{MemConfig, Sram};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemConfig::new(64, 8)?;
//! let mut sram = Sram::new(config);
//! let mut injector = FaultInjector::with_seed(0xDA7E_2005);
//! let faults = injector.inject(&mut sram, &DefectProfile::date2005(0.01))?;
//! assert!(!faults.is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod fault;
pub mod injection;
pub mod list;
pub mod universe;

pub use fault::{FaultClass, MemoryFault};
pub use injection::{DefectProfile, FaultInjector};
pub use list::FaultList;
pub use universe::FaultUniverse;
