//! Behavioural embedded-SRAM model for memory BIST/BISD simulation.
//!
//! This crate provides the memory substrate used by the reproduction of
//! *"A Fast Diagnosis Scheme for Distributed Small Embedded SRAMs"*
//! (Wang, Wu, Ivanov — DATE 2005). It models a small embedded SRAM
//! (e-SRAM) at the level of observable port behaviour:
//!
//! * a word-organised cell array stored as packed bit planes
//!   ([`planes::BitPlanes`]: `u64` limbs, one run per word) with a
//!   sparse overlay of behavioural cells for the faulty sites, so
//!   fault-free word accesses are limb copies — with per-cell defect
//!   semantics ([`cell::CellFault`]) covering stuck-at, transition,
//!   coupling, bridging and **data-retention** (open pull-up PMOS)
//!   faults;
//! * the pre-refactor dense per-cell model
//!   ([`reference::ReferenceSram`]) kept as a differential-testing
//!   oracle and benchmarking baseline, behind the same
//!   [`port::MemoryPort`]/[`port::FaultTarget`] abstractions;
//! * a lane-parallel transposition of that design
//!   ([`lanes::LanePlanes`]): up to 64 independently-faulty copies of
//!   one memory packed into the bit lanes of a `u64`, driven by
//!   broadcast row operations — the substrate of the march fault
//!   simulator's lane kernel;
//! * an address decoder with the classical address-decoder fault classes;
//! * port operations (read, write and the *No Write Recovery Cycle* of
//!   the NWRTM DFT technique);
//! * retention-time elapse so that data-retention faults only become
//!   observable after a configurable pause (or immediately under NWRTM);
//! * a backup (spare-word) memory used for repair after diagnosis.
//!
//! The model is deliberately *behavioural*: it reproduces exactly the
//! responses a diagnosis architecture can observe through the memory
//! ports, which is all the DATE 2005 evaluation depends on.
//!
//! # Example
//!
//! ```
//! use sram_model::{MemConfig, Sram, DataWord, Address};
//!
//! # fn main() -> Result<(), sram_model::MemError> {
//! let config = MemConfig::new(512, 100)?; // 512 words, 100 IO bits
//! let mut sram = Sram::new(config);
//! let pattern = DataWord::splat(true, 100);
//! sram.write(Address::new(7), &pattern)?;
//! assert_eq!(sram.read(Address::new(7))?, pattern);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod array;
pub mod backup;
pub mod cell;
pub mod config;
pub mod decoder;
pub mod error;
pub mod lanes;
pub mod planes;
pub mod port;
pub mod reference;
pub mod retention;
pub mod word;

pub use array::{RowState, Sram};
pub use backup::{BackupMemory, RepairOutcome};
pub use cell::{Cell, CellFault, CellNode, CouplingKind};
pub use config::{Address, MemConfig, MemoryId};
pub use decoder::{DecoderFault, DecoderFaultKind};
pub use error::MemError;
pub use lanes::LanePlanes;
pub use planes::BitPlanes;
pub use port::{FaultTarget, MemoryPort, RowClasses};
pub use reference::ReferenceSram;
pub use retention::RetentionModel;
pub use word::{DataWord, FailingBits};
