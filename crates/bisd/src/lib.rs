//! Built-In Self-Diagnosis (BISD) architectures for distributed small
//! embedded SRAMs.
//!
//! This crate assembles the substrates (memory model, fault models,
//! March engine, serial fabrics) into the two end-to-end diagnosis
//! architectures the DATE 2005 paper compares:
//!
//! * [`HuangScheme`] — the baseline of \[7,8\] (Fig. 1): one shared BISD
//!   controller, local address generators, and a **bi-directional serial
//!   interface** per memory. Every memory operation is applied
//!   bit-serially and each March element can locate at most one new
//!   faulty cell per shift direction, so the `M1` element group must be
//!   iterated `k` times — diagnosis time grows with the defect count and
//!   data-retention faults are not covered at all.
//! * [`FastScheme`] — the proposed architecture (Fig. 3): per-memory
//!   **SPC/PSC** converters deliver patterns serially but apply them in
//!   parallel and serialise responses outside the cell array, so every
//!   fault is located in a single pass; merging **NWRTM** No-Write-
//!   Recovery cycles adds data-retention coverage without any pause.
//!
//! Both schemes operate on a population of heterogeneous memories
//! ([`MemoryUnderDiagnosis`]), account clock cycles exactly as the
//! paper's Eq. (1)/(2) do, and produce a [`DiagnosisResult`] with the
//! located fault sites per memory, ready for spare-word repair.
//!
//! # Example
//!
//! ```
//! use bisd::{DiagnosisScheme, FastScheme, MemoryUnderDiagnosis};
//! use sram_model::{MemConfig, MemoryId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut memories = vec![
//!     MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(64, 8)?),
//!     MemoryUnderDiagnosis::pristine(MemoryId::new(1), MemConfig::new(32, 4)?),
//! ];
//! let scheme = FastScheme::new(10.0); // 10 ns diagnosis clock
//! let result = scheme.diagnose(&mut memories)?;
//! assert!(result.is_clean());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod components;
pub mod fast;
pub mod huang;
pub mod kernel;
pub mod log;
pub mod population;
pub mod result;
pub mod scheme;

pub use components::{AddressTrigger, ComparatorArray, DataBackgroundGenerator, MemorySizeTable};
pub use fast::{DrfMode, FastScheme, PopulationPlan, SegmentOutcome};
pub use huang::HuangScheme;
pub use kernel::DiagnosisKernel;
pub use log::{DiagnosisLog, FaultSite, LocatedSites};
pub use population::GoldenStore;
pub use result::DiagnosisResult;
pub use scheme::{DiagnosisScheme, MemoryUnderDiagnosis};
