//! The Sec. 4.2 case study: benchmark e-SRAMs from \[16\], 1 % defect
//! rate, four defect classes with equal likelihood.

use crate::analytic::AnalyticModel;
use std::fmt;

/// Parameters of the case study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudy {
    /// Analytic model of the largest/widest memory.
    pub model: AnalyticModel,
    /// Cell defect rate (the paper assumes 1 %).
    pub defect_rate: f64,
    /// Retention delay the baseline would need for DRF testing, in
    /// milliseconds (the paper assumes 200 ms in total).
    pub retention_delay_ms: f64,
}

impl CaseStudy {
    /// The paper's case study: n = 512, c = 100, t = 10 ns, 1 % defects,
    /// 200 ms retention delay.
    pub fn date2005() -> Self {
        CaseStudy {
            model: AnalyticModel::date2005_benchmark(),
            defect_rate: 0.01,
            retention_delay_ms: 200.0,
        }
    }

    /// Creates a case study with explicit parameters.
    pub fn new(model: AnalyticModel, defect_rate: f64, retention_delay_ms: f64) -> Self {
        CaseStudy {
            model,
            defect_rate,
            retention_delay_ms,
        }
    }

    /// Evaluates the case study.
    pub fn evaluate(&self) -> CaseStudyReport {
        let faults = self.model.max_faults_for_defect_rate(self.defect_rate);
        let k = AnalyticModel::iterations_for_faults(faults);
        CaseStudyReport {
            faults,
            iterations: k,
            baseline_ms: self.model.baseline_time(k).total_ms(),
            proposed_ms: self.model.proposed_time().total_ms(),
            reduction_without_drf: self.model.reduction_without_drf(k),
            baseline_with_drf_ms: self
                .model
                .baseline_time_with_drf(k, self.retention_delay_ms)
                .total_ms(),
            proposed_with_drf_ms: self.model.proposed_time_with_drf().total_ms(),
            reduction_with_drf: self.model.reduction_with_drf(k, self.retention_delay_ms),
        }
    }
}

impl Default for CaseStudy {
    fn default() -> Self {
        CaseStudy::date2005()
    }
}

/// The quantities the paper reports for the case study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudyReport {
    /// Maximum number of faults for the defect rate (256 in the paper).
    pub faults: u64,
    /// Baseline `M1` iteration count `k` (96 in the paper).
    pub iterations: u64,
    /// Baseline diagnosis time without DRFs, in milliseconds (Eq. 1).
    pub baseline_ms: f64,
    /// Proposed diagnosis time without DRFs, in milliseconds (Eq. 2).
    pub proposed_ms: f64,
    /// Reduction factor without DRFs (Eq. 3; ≥ 84 in the paper).
    pub reduction_without_drf: f64,
    /// Baseline diagnosis time including pause-based DRF testing, ms.
    pub baseline_with_drf_ms: f64,
    /// Proposed diagnosis time including NWRTM DRF diagnosis, ms.
    pub proposed_with_drf_ms: f64,
    /// Reduction factor with DRFs included (Eq. 4; ≥ 145 claimed).
    pub reduction_with_drf: f64,
}

impl CaseStudyReport {
    /// Renders the report as a two-row comparison table (without and
    /// with DRF diagnosis).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "case study: {} faults, k = {} iterations\n",
            self.faults, self.iterations
        ));
        out.push_str(&format!(
            "{:<28} {:>16} {:>16} {:>10}\n",
            "configuration", "baseline [7,8]", "proposed", "R"
        ));
        out.push_str(&format!(
            "{:<28} {:>13.3} ms {:>13.3} ms {:>10.1}\n",
            "without DRF diagnosis", self.baseline_ms, self.proposed_ms, self.reduction_without_drf
        ));
        out.push_str(&format!(
            "{:<28} {:>13.3} ms {:>13.3} ms {:>10.1}\n",
            "with DRF diagnosis",
            self.baseline_with_drf_ms,
            self.proposed_with_drf_ms,
            self.reduction_with_drf
        ));
        out
    }
}

impl fmt::Display for CaseStudyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R = {:.1} without DRFs, R = {:.1} with DRFs (k = {})",
            self.reduction_without_drf, self.reduction_with_drf, self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_case_study_numbers_are_reproduced() {
        let report = CaseStudy::date2005().evaluate();
        assert_eq!(report.faults, 256);
        assert_eq!(report.iterations, 96);
        assert!(
            report.reduction_without_drf >= 84.0,
            "R = {}",
            report.reduction_without_drf
        );
        assert!(report.reduction_without_drf < 86.0);
        assert!(
            report.reduction_with_drf > 140.0,
            "R = {}",
            report.reduction_with_drf
        );
        // Proposed time is about 10 ms; baseline about 840 ms.
        assert!((report.proposed_ms - 9.9844).abs() < 0.01);
        assert!((report.baseline_ms - 840.192).abs() < 0.01);
        assert!(report.baseline_with_drf_ms > 1_000.0);
        assert!(report.proposed_with_drf_ms < 10.1);
    }

    #[test]
    fn table_contains_both_rows_and_the_reduction_factors() {
        let table = CaseStudy::date2005().evaluate().to_table();
        assert!(table.contains("without DRF diagnosis"));
        assert!(table.contains("with DRF diagnosis"));
        assert!(table.contains("84"));
        assert!(CaseStudy::date2005().evaluate().to_string().contains("k = 96"));
    }

    #[test]
    fn higher_defect_rate_increases_both_reduction_factors() {
        let low = CaseStudy::new(AnalyticModel::date2005_benchmark(), 0.005, 200.0).evaluate();
        let high = CaseStudy::new(AnalyticModel::date2005_benchmark(), 0.02, 200.0).evaluate();
        assert!(high.reduction_without_drf > low.reduction_without_drf);
        assert!(high.reduction_with_drf > low.reduction_with_drf);
        assert!(high.iterations > low.iterations);
    }

    #[test]
    fn default_is_the_paper_case_study() {
        assert_eq!(CaseStudy::default(), CaseStudy::date2005());
    }
}
