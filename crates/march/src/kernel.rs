//! Selection of the fault-simulation kernel [`crate::FaultSimulator`]
//! runs.
//!
//! The lane-parallel kernel is the production path. The per-memory
//! kernel is the original one-memory-per-fault walk, kept as the
//! equivalence oracle: tests and benches pin it with
//! [`crate::FaultSimulator::with_kernel`], and the lane-kernel
//! equivalence suite asserts the two are byte-identical on every
//! outcome.

use std::fmt;

/// Which fault-simulation kernel [`crate::FaultSimulator`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSimKernel {
    /// Lane-parallel kernel: up to 64 faulty machines per schedule
    /// replay, one per bit lane of a `u64`, with per-fault fallback for
    /// the classes the lane transposition cannot express.
    #[default]
    Lanes,
    /// The original per-fault kernel: one full (row-pruned) schedule
    /// replay on a dedicated memory per fault. Kept as the equivalence
    /// oracle.
    PerMemory,
}

impl FaultSimKernel {
    /// Parses a kernel name (a spec's `[execution] faultsim_kernel`),
    /// case-insensitive, surrounding whitespace ignored. Unknown values
    /// yield `None`.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "lanes" | "lane" | "lane-parallel" => Some(FaultSimKernel::Lanes),
            "permem" | "per-memory" | "permemory" => Some(FaultSimKernel::PerMemory),
            _ => None,
        }
    }

    /// Every kernel, for exhaustive equivalence sweeps.
    pub fn all() -> [FaultSimKernel; 2] {
        [FaultSimKernel::Lanes, FaultSimKernel::PerMemory]
    }
}

impl fmt::Display for FaultSimKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSimKernel::Lanes => write!(f, "lanes"),
            FaultSimKernel::PerMemory => write!(f, "permem"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultsim_kernel_parses_every_supported_spelling() {
        for kernel in FaultSimKernel::all() {
            // The canonical Display spelling round-trips.
            assert_eq!(FaultSimKernel::parse(&kernel.to_string()), Some(kernel));
        }
        assert_eq!(FaultSimKernel::parse(" LANES "), Some(FaultSimKernel::Lanes));
        assert_eq!(
            FaultSimKernel::parse("lane-parallel"),
            Some(FaultSimKernel::Lanes)
        );
        assert_eq!(
            FaultSimKernel::parse("per-memory"),
            Some(FaultSimKernel::PerMemory)
        );
        assert_eq!(FaultSimKernel::parse("lnaes"), None);
        assert_eq!(FaultSimKernel::parse(""), None);
        assert_eq!(FaultSimKernel::default(), FaultSimKernel::Lanes);
    }
}
