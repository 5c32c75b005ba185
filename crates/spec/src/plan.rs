//! The compiled form of a scenario spec.
//!
//! A [`DiagnosisPlan`] is plain data: the sweep grid expanded into
//! concrete [`PlannedJob`]s, the scheme resolved into the exact knobs
//! the diagnosis engines take, the report settings carried along. It is
//! `PartialEq` so the round-trip property test can assert
//! `parse(to_toml(spec)).compile() == spec.compile()` structurally.

use crate::spec::{DrfSpec, MemoryGroup};
use bisd::DiagnosisKernel;
use esram_diag::{FaultClass, FaultSimKernel};

/// A validated, sweep-expanded run plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisPlan {
    /// Scenario name (also the default output directory name).
    pub name: String,
    /// The resolved scheme configuration, shared by every job.
    pub scheme: SchemeConfig,
    /// Kernel override; `None` runs the default bit-parallel kernel and
    /// is reported as `inherit`.
    pub kernel: Option<DiagnosisKernel>,
    /// Fault-simulation kernel, validated and echoed in the report but
    /// not applied: spec runs never construct a fault simulator. `None`
    /// reports `inherit`.
    pub faultsim_kernel: Option<FaultSimKernel>,
    /// Report settings.
    pub report: ReportConfig,
    /// One job per sweep-grid point, in rate-major order.
    pub jobs: Vec<PlannedJob>,
}

impl DiagnosisPlan {
    /// Total number of memories a single job builds.
    pub fn memories_per_job(&self) -> usize {
        self.jobs
            .first()
            .map(|job| job.memories.iter().map(|group| group.count).sum())
            .unwrap_or(0)
    }
}

/// The scheme a plan runs, with every engine knob resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeConfig {
    /// The paper's proposed scheme (Eq. (2) cycles).
    Fast {
        /// BIST clock period in nanoseconds.
        clock_ns: f64,
        /// Data-retention handling.
        drf: DrfSpec,
    },
    /// The Huang et al. serial baseline (Eq. (1) cycles).
    Baseline {
        /// BIST clock period in nanoseconds.
        clock_ns: f64,
        /// Optional retention pause between iterations.
        retention_pause_ms: Option<u32>,
        /// Iteration cap.
        max_iterations: u64,
    },
}

impl SchemeConfig {
    /// The scheme's clock period in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        match self {
            SchemeConfig::Fast { clock_ns, .. } => *clock_ns,
            SchemeConfig::Baseline { clock_ns, .. } => *clock_ns,
        }
    }

    /// Short name for reports: `"fast"` or `"baseline"`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SchemeConfig::Fast { .. } => "fast",
            SchemeConfig::Baseline { .. } => "baseline",
        }
    }
}

/// Report settings carried from the spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportConfig {
    /// Output directory override from the spec (`--out` and
    /// `ESRAM_SPEC_OUT` take precedence at the CLI layer).
    pub dir: Option<String>,
    /// Whether per-job located sites are listed in the report.
    pub sites: bool,
}

/// One concrete job: a SoC population to build and diagnose.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// Stable job label: `"base"`, or the swept axes as
    /// `"rate=R/seed=S"`.
    pub label: String,
    /// Defect-injection seed.
    pub seed: u64,
    /// Per-cell defect rate.
    pub defect_rate: f64,
    /// Explicit fault-class mix; empty = the paper's four-class
    /// baseline profile.
    pub classes: Vec<FaultClass>,
    /// Whether data-retention faults join the defect mix.
    pub data_retention: bool,
    /// Spare words per memory.
    pub spares: usize,
    /// Memory geometry groups, in spec order.
    pub memories: Vec<MemoryGroup>,
}

impl PlannedJob {
    /// Total number of memories this job builds.
    pub fn memory_count(&self) -> usize {
        self.memories.iter().map(|group| group.count).sum()
    }

    /// Total number of cells across the job's population.
    pub fn total_cells(&self) -> u64 {
        self.memories.iter().map(MemoryGroup::cells).sum()
    }
}
