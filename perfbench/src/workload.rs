//! What every workload provides to the measurement loop.

use crate::trace::Tracer;
use std::fmt;

/// Input size: `Full` is what the benchmark measures; `Tiny` runs the
/// same pipeline on small inputs for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The work one op does, for the throughput metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWork {
    /// Population cells diagnosed (fault simulation: faulty-machine
    /// cells, faults times cells per memory).
    pub cells: u64,
    /// Injected or simulated faults handled.
    pub faults: u64,
}

/// A simulated-time or quality figure, printed by name with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperMetric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl PaperMetric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        PaperMetric { name, value, unit }
    }
}

/// A workload: built once per set-up (inputs compiled and generated
/// from the seed, one-off correctness references computed, one checked
/// warm-up op run), then run op after op.
pub trait Workload {
    type Output;

    /// One op through the production entry points.
    fn op(&self) -> Result<Self::Output, String>;

    /// The same op replayed as separate calls into each layer, each
    /// inside its own span. Its output must equal [`Workload::op`]'s.
    fn traced_op(&self, tracer: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks one op's output against the set-up's references.
    fn check(&self, output: &Self::Output) -> Result<(), String>;

    fn work(&self) -> OpWork;

    /// Located / injected (fault simulation: located / simulated) for
    /// the proposed scheme.
    fn location_coverage(&self) -> f64;

    /// Simulated-time and quality figures; deterministic for a seed.
    fn paper_metrics(&self) -> Vec<PaperMetric>;

    /// The resolved configuration, recorded with the results.
    fn config(&self) -> Vec<(&'static str, String)>;
}

/// The benchmark's workloads, by their names in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    CaseStudy,
    DistributedFleet,
    BaselineComparison,
    FaultSimCampaign,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::CaseStudy,
        WorkloadName::DistributedFleet,
        WorkloadName::BaselineComparison,
        WorkloadName::FaultSimCampaign,
    ];

    pub fn parse(raw: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|name| name.as_str() == raw)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::CaseStudy => "case_study",
            WorkloadName::DistributedFleet => "distributed_fleet",
            WorkloadName::BaselineComparison => "baseline_comparison",
            WorkloadName::FaultSimCampaign => "fault_sim_campaign",
        }
    }
}

impl fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}
