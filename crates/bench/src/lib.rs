//! Shared helpers for the benchmark harnesses.
//!
//! Every bench target in `benches/` times the kernel behind one of the
//! paper's evaluation artefacts (see `DESIGN.md`, experiment index) and
//! prints nothing: the artefacts themselves are asserted by
//! `crates/core/tests/paper_results.rs` and committed as
//! `examples/goldens/paper_results.md`.

use esram_diag::Soc;

pub mod ledger;

/// Builds a reproducible small defective population used by several
/// benches: `memories` e-SRAMs of `words x width` at the given defect
/// rate (baseline defect classes only).
pub fn small_population(memories: usize, words: u64, width: usize, defect_rate: f64, seed: u64) -> Soc {
    Soc::builder()
        .memories(memories, words, width)
        .expect("valid geometry")
        .defect_rate(defect_rate)
        .seed(seed)
        .spares(32)
        .build()
        .expect("population builds")
}

/// Builds a reproducible defective population that also contains
/// data-retention defects.
pub fn drf_population(memories: usize, words: u64, width: usize, defect_rate: f64, seed: u64) -> Soc {
    Soc::builder()
        .memories(memories, words, width)
        .expect("valid geometry")
        .defect_rate(defect_rate)
        .with_data_retention_defects()
        .seed(seed)
        .spares(32)
        .build()
        .expect("population builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_helpers_build_deterministically() {
        let a = small_population(2, 32, 8, 0.02, 1);
        let b = small_population(2, 32, 8, 0.02, 1);
        assert_eq!(a.injected_faults(), b.injected_faults());
        assert!(a.injected_faults() > 0);
        let drf = drf_population(1, 64, 8, 0.05, 2);
        assert!(drf
            .memories()
            .iter()
            .flat_map(|m| m.injected.iter())
            .any(|f| f.class() == esram_diag::FaultClass::DataRetention));
    }
}
