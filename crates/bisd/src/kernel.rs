//! Selection of the population-stepping kernel used by the schemes.
//!
//! The bit-parallel kernel is the production path: it steps only the
//! sparse set of (memory, row) pairs whose behaviour can deviate from
//! the controller's golden model (see the scheme documentation for the
//! soundness argument). The per-memory kernel is the original dense
//! walk, retained verbatim as the equivalence oracle — the kernel
//! equivalence suite asserts the two produce byte-identical results.
//! Tests and benches select it with `with_kernel`, and a spec with
//! `[execution] kernel = "per-memory"`.

use std::fmt;

/// Which stepping kernel a scheme uses over the population.
///
/// Both kernels are byte-identical in output (located sites, mismatch
/// counts, iterations, cycle counts); they differ only in how much work
/// they skip. Cycle accounting is closed-form in the planning
/// stage either way, so Eq. (2) is untouched by the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiagnosisKernel {
    /// Step only memories (and rows) whose behaviour can deviate from
    /// the golden expectation, as declared by each memory's
    /// [`row_classes`](sram_model::MemoryPort::row_classes): the
    /// proposed scheme steps the stepped and non-reset rows and replays
    /// the lane rows 64 at a time, and the baseline steps the lane and
    /// stepped rows.
    #[default]
    BitParallel,
    /// Step every operation of every memory through its serial
    /// converters — the original dense walk, kept as the oracle.
    PerMemory,
}

impl DiagnosisKernel {
    /// Parses a kernel name (a spec's `[execution] kernel`),
    /// case-insensitive, surrounding whitespace ignored.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "bitparallel" | "bit-parallel" => Some(DiagnosisKernel::BitParallel),
            "permem" | "per-memory" | "permemory" => Some(DiagnosisKernel::PerMemory),
            _ => None,
        }
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
