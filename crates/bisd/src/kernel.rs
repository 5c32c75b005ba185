//! Selection of the population-stepping kernel used by the schemes.
//!
//! The bit-parallel kernel is the production path: it steps only the
//! sparse set of (memory, row) pairs whose behaviour can deviate from
//! the controller's golden model (see the scheme documentation for the
//! soundness argument). The per-memory kernel is the original dense
//! walk, retained verbatim as the equivalence oracle — the kernel
//! equivalence suite asserts the two produce byte-identical results,
//! and `ESRAM_DIAG_KERNEL=permem` lets any run (or the CI determinism
//! matrix) re-check that on demand.

use std::fmt;

/// Environment variable overriding the default diagnosis kernel:
/// `bitparallel` (the default) or `permem` (the per-memory oracle),
/// case-insensitive. A set-but-unrecognised value falls back to the
/// default with a one-time warning on stderr, mirroring the executor's
/// `ESRAM_DIAG_THREADS` / `ESRAM_DIAG_SCHED` knobs.
pub const KERNEL_ENV: &str = "ESRAM_DIAG_KERNEL";

/// Which stepping kernel a scheme uses over the population.
///
/// Both kernels are byte-identical in output (verdicts, mismatch
/// records and their order, cycle counts); they differ only in how much
/// work they skip. Cycle accounting is closed-form in the planning
/// stage either way, so Eq. (2) is untouched by the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiagnosisKernel {
    /// Step only memories (and rows) whose behaviour can deviate from
    /// the golden expectation, as declared by each memory's
    /// [`AccessProfile`](sram_model::AccessProfile).
    #[default]
    BitParallel,
    /// Step every operation of every memory through its serial
    /// converters — the original dense walk, kept as the oracle.
    PerMemory,
}

impl DiagnosisKernel {
    /// Parses an environment-variable value (case-insensitive,
    /// surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "bitparallel" | "bit-parallel" => Some(DiagnosisKernel::BitParallel),
            "permem" | "per-memory" | "permemory" => Some(DiagnosisKernel::PerMemory),
            _ => None,
        }
    }

    /// The kernel selected by [`KERNEL_ENV`], defaulting to
    /// [`DiagnosisKernel::BitParallel`] when unset. A set-but-malformed
    /// value also yields the default, with a one-time warning naming
    /// the variable and the fallback (a typo must not silently test the
    /// wrong kernel) — routed through the workspace's shared warn-once
    /// knob path so this knob cannot drift from the executor's.
    pub fn from_env() -> Self {
        esram_exec::env::read_knob(KERNEL_ENV, Self::parse, || {
            format!("the default kernel ({})", DiagnosisKernel::default())
        })
        .unwrap_or_default()
    }

    /// Both kernels, for equivalence sweeps.
    pub fn all() -> [DiagnosisKernel; 2] {
        [DiagnosisKernel::BitParallel, DiagnosisKernel::PerMemory]
    }
}

impl fmt::Display for DiagnosisKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosisKernel::BitParallel => write!(f, "bitparallel"),
            DiagnosisKernel::PerMemory => write!(f, "permem"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_case_insensitively_and_rejects_garbage() {
        assert_eq!(
            DiagnosisKernel::parse(" BitParallel "),
            Some(DiagnosisKernel::BitParallel)
        );
        assert_eq!(DiagnosisKernel::parse("permem"), Some(DiagnosisKernel::PerMemory));
        assert_eq!(
            DiagnosisKernel::parse("per-memory"),
            Some(DiagnosisKernel::PerMemory)
        );
        assert_eq!(DiagnosisKernel::parse("oracle"), None);
        assert_eq!(DiagnosisKernel::parse(""), None);
        for kernel in DiagnosisKernel::all() {
            assert_eq!(DiagnosisKernel::parse(&kernel.to_string()), Some(kernel));
        }
    }

    #[test]
    fn default_is_bit_parallel() {
        assert_eq!(DiagnosisKernel::default(), DiagnosisKernel::BitParallel);
    }
}
