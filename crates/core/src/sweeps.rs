//! Parameter sweeps over defect rate and memory geometry.
//!
//! These extend the paper's single-point case study into curves: how the
//! reduction factor `R` behaves as the defect rate, capacity and width
//! of the benchmark memory change (the S1/S2 rows of
//! `examples/goldens/paper_results.md`).

use crate::analytic::AnalyticModel;

/// One row of the defect-rate sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectRatePoint {
    /// Cell defect rate.
    pub defect_rate: f64,
    /// Maximum fault count for that rate.
    pub faults: u64,
    /// Baseline `M1` iteration count `k`.
    pub iterations: u64,
    /// Baseline diagnosis time (Eq. 1), milliseconds.
    pub baseline_ms: f64,
    /// Proposed diagnosis time (Eq. 2), milliseconds.
    pub proposed_ms: f64,
    /// Reduction factor without DRF diagnosis (Eq. 3).
    pub reduction_without_drf: f64,
    /// Reduction factor with DRF diagnosis (Eq. 4).
    pub reduction_with_drf: f64,
}

/// Sweeps the defect rate at fixed geometry (the paper's benchmark by
/// default) and returns one row per rate.
pub fn defect_rate_sweep(model: &AnalyticModel, rates: &[f64]) -> Vec<DefectRatePoint> {
    rates
        .iter()
        .map(|&defect_rate| {
            let faults = model.max_faults_for_defect_rate(defect_rate);
            let iterations = AnalyticModel::iterations_for_faults(faults).max(1);
            DefectRatePoint {
                defect_rate,
                faults,
                iterations,
                baseline_ms: model.baseline_time(iterations).total_ms(),
                proposed_ms: model.proposed_time().total_ms(),
                reduction_without_drf: model.reduction_without_drf(iterations),
                reduction_with_drf: model.reduction_with_drf(iterations, 200.0),
            }
        })
        .collect()
}

/// One row of the geometry sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizePoint {
    /// Memory capacity (words).
    pub words: u64,
    /// Memory IO width (bits).
    pub width: u64,
    /// Baseline `M1` iteration count `k` at the swept defect rate.
    pub iterations: u64,
    /// Baseline diagnosis time, milliseconds.
    pub baseline_ms: f64,
    /// Proposed diagnosis time, milliseconds.
    pub proposed_ms: f64,
    /// Reduction factor without DRF diagnosis.
    pub reduction_without_drf: f64,
}

/// Sweeps memory geometry at a fixed defect rate and clock period.
pub fn size_sweep(geometries: &[(u64, u64)], clock_period_ns: f64, defect_rate: f64) -> Vec<SizePoint> {
    geometries
        .iter()
        .map(|&(words, width)| {
            let model = AnalyticModel::new(words, width, clock_period_ns);
            let faults = model.max_faults_for_defect_rate(defect_rate);
            let iterations = AnalyticModel::iterations_for_faults(faults).max(1);
            SizePoint {
                words,
                width,
                iterations,
                baseline_ms: model.baseline_time(iterations).total_ms(),
                proposed_ms: model.proposed_time().total_ms(),
                reduction_without_drf: model.reduction_without_drf(iterations),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_rate_sweep_is_monotone_in_r() {
        let model = AnalyticModel::date2005_benchmark();
        let rates = [0.001, 0.005, 0.01, 0.02, 0.05];
        let points = defect_rate_sweep(&model, &rates);
        assert_eq!(points.len(), rates.len());
        for pair in points.windows(2) {
            assert!(pair[1].reduction_without_drf >= pair[0].reduction_without_drf);
            assert!(pair[1].iterations >= pair[0].iterations);
        }
        // Proposed time is defect-rate independent.
        let first = points[0].proposed_ms;
        assert!(points.iter().all(|p| (p.proposed_ms - first).abs() < 1e-12));
    }

    #[test]
    fn defect_rate_sweep_contains_the_case_study_point() {
        let model = AnalyticModel::date2005_benchmark();
        let points = defect_rate_sweep(&model, &[0.01]);
        assert_eq!(points[0].faults, 256);
        assert_eq!(points[0].iterations, 96);
        assert!(points[0].reduction_without_drf >= 84.0);
    }

    #[test]
    fn size_sweep_shows_r_growing_with_width() {
        // The baseline pays c cycles per operation, the proposed scheme
        // only pays c per read shift-out, so R grows with the width.
        let points = size_sweep(&[(512, 8), (512, 32), (512, 100)], 10.0, 0.01);
        assert!(points[2].reduction_without_drf > points[0].reduction_without_drf);
    }
}
