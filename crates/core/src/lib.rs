//! `esram-diag` — a reproduction of *"A Fast Diagnosis Scheme for
//! Distributed Small Embedded SRAMs"* (Wang, Wu, Ivanov — DATE 2005).
//!
//! The crate ties the substrates together into the user-facing API:
//!
//! * [`Soc`] — a population of heterogeneous small embedded SRAMs with
//!   optional random defect injection (including the paper's benchmark
//!   population from \[16\]: 512 words × 100 IO bits, 10 ns clock).
//! * End-to-end diagnosis through the [`bisd`] schemes
//!   ([`FastScheme`], [`HuangScheme`]) with exact cycle accounting, plus
//!   scoring of the located faults against the injected ground truth.
//! * [`fleet`] — fleet-scale batched diagnosis: N independent jobs
//!   (build + plan + diagnose) flattened into one deterministic
//!   executor run, with per-job results byte-identical to solo runs.
//! * [`analytic`] — the paper's closed-form diagnosis-time models
//!   (Eq. 1–4) and reduction factors.
//! * [`area`] — the Sec. 4.3 transistor-count area model (D-FF = two 6T
//!   cells, latch = one 6T cell) and global-wire accounting.
//! * [`case_study`] — the Sec. 4.2 case study (1 % defect rate, four
//!   defect classes, k = 96, R ≥ 84 without DRFs).
//! * [`coverage`] — scheme-level coverage evaluation over exhaustive
//!   fault universes (Sec. 4.1).
//! * [`sweeps`] — defect-rate and memory-geometry sweeps used by the
//!   extended benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use esram_diag::{Soc, FastScheme, DiagnosisScheme};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three small e-SRAMs of different geometries, 2 % defective cells.
//! let mut soc = Soc::builder()
//!     .memory(64, 8)?
//!     .memory(32, 6)?
//!     .memory(16, 4)?
//!     .defect_rate(0.02)
//!     .seed(7)
//!     .build()?;
//! let result = FastScheme::new(10.0).diagnose(soc.memories_mut())?;
//! let score = soc.score(&result);
//! assert!(score.location_coverage() > 0.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod analytic;
pub mod area;
pub mod case_study;
pub mod coverage;
pub mod fleet;
pub mod score;
pub mod soc;
pub mod sweeps;

pub use analytic::{AnalyticModel, TimeBreakdown};
pub use area::{AreaModel, AreaReport};
pub use case_study::{CaseStudy, CaseStudyReport};
pub use coverage::scheme_coverage;
pub use fleet::{FleetError, FleetJob, FleetOutcome, FleetPhase, FleetPlan, FleetRunner, JobOutcome};
pub use score::DiagnosisScore;
pub use soc::{Soc, SocBuilder};
pub use sweeps::{defect_rate_sweep, size_sweep, DefectRatePoint, SizePoint};

// Re-export the main types users need from the substrate crates so the
// public API is usable from this crate alone.
pub use bisd::{
    DataBackgroundGenerator, DiagnosisKernel, DiagnosisResult, DiagnosisScheme, DrfMode, FastScheme,
    GoldenStore, HuangScheme, MemoryUnderDiagnosis,
};
pub use esram_exec::RunToken;
pub use fault_models::{DefectProfile, FaultClass, FaultInjector, FaultList, FaultUniverse, MemoryFault};
pub use march::{
    algorithms, DataBackground, FaultSimKernel, MarchSchedule, MarchTest, ShardPlan, ShardStrategy,
};
pub use sram_model::{Address, DataWord, MemConfig, MemoryId, Sram};
