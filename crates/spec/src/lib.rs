//! Spec-compiled diagnosis runs.
//!
//! This crate turns TOML scenario specs into validated, executable
//! diagnosis plans — the configuration layer the `esram` CLI drives:
//!
//! * [`toml`] — a hand-rolled, dependency-free parser for the TOML
//!   subset the specs use, with a precise [`Span`] on every value and
//!   every rejection.
//! * [`ScenarioSpec`] — the validated schema: memory geometries, defect
//!   model and rate, scheme and kernel selection, seeds, optional sweep
//!   grids. [`ScenarioSpec::parse`] rejects anything malformed with a
//!   span-bearing [`SpecError`]; [`ScenarioSpec::to_toml`] serialises a
//!   spec back (the round-trip property the test suite enforces).
//! * [`DiagnosisPlan`] — the compiled form: the sweep grid expanded
//!   into concrete [`PlannedJob`]s plus resolved scheme knobs.
//! * [`execute_plan`] — runs a plan through the existing fleet stack
//!   (fast-scheme jobs batch into one [`FleetRunner`] run with per-job
//!   fault domains; baseline jobs run per population) and emits a
//!   deterministic JSON report: verdicts, Eq. (1)/(2) cycle tables,
//!   per-job scores and simulated times. Same spec + seed means
//!   byte-identical report bytes at any worker count or kernel.
//!
//! [`FleetRunner`]: esram_diag::FleetRunner

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod error;
pub mod json;
pub mod plan;
pub mod report;
pub mod spec;
pub mod toml;

pub use error::{SpecError, SpecErrorKind};
pub use json::Json;
pub use plan::{DiagnosisPlan, PlannedJob, ReportConfig, SchemeConfig};
pub use report::{execute_plan, summarize, RunReport, REPORT_FORMAT};
pub use spec::{
    compile_str, DefectSpec, DrfSpec, MemoryGroup, ReportSpec, ScenarioSpec, SchemeKind, SchemeSpec,
    SweepSpec, DEFAULT_SEED, MAX_CELLS,
};
pub use toml::Span;

/// Deepest nesting of arrays (and, in reports, objects) the spec and
/// report parsers accept. Both parsers recurse once per level, so
/// deeper input is rejected with an error instead of overflowing the
/// stack.
pub const MAX_NESTING: usize = 32;
