//! Closed-form diagnosis-time models (Sec. 4.2, Eq. 1–4).
//!
//! All times are in nanoseconds. `n` is the capacity (words) and `c` the
//! IO width of the largest/widest memory, `t` the diagnosis clock period
//! in nanoseconds, and `k` the number of `M1` iterations the baseline
//! needs (which grows with the defect count).

use march::background::log2_ceil;
use std::fmt;

/// Breakdown of a diagnosis time into clocked cycles and pause time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Clocked diagnosis cycles.
    pub cycles: u64,
    /// Retention-pause time in nanoseconds (zero unless pause-based DRF
    /// testing is included).
    pub pause_ns: f64,
    /// Clock period in nanoseconds.
    pub clock_period_ns: f64,
}

impl TimeBreakdown {
    /// Total time in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.cycles as f64 * self.clock_period_ns + self.pause_ns
    }

    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns() / 1.0e6
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles @ {} ns + {} ns pause = {:.3} ms",
            self.cycles,
            self.clock_period_ns,
            self.pause_ns,
            self.total_ms()
        )
    }
}

/// The analytic model of the paper, parameterised on the largest/widest
/// memory and the diagnosis clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticModel {
    /// Capacity (words) of the largest memory, `n`.
    pub words: u64,
    /// IO width of the widest memory, `c`.
    pub width: u64,
    /// Diagnosis clock period `t` in nanoseconds.
    pub clock_period_ns: f64,
}

impl AnalyticModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `width` is zero or the clock period is not
    /// positive.
    pub fn new(words: u64, width: u64, clock_period_ns: f64) -> Self {
        assert!(words > 0 && width > 0, "geometry must be non-zero");
        assert!(
            clock_period_ns.is_finite() && clock_period_ns > 0.0,
            "clock period must be positive"
        );
        AnalyticModel {
            words,
            width,
            clock_period_ns,
        }
    }

    /// The benchmark parameters of the paper's case study (from \[16\]):
    /// n = 512, c = 100, t = 10 ns.
    pub fn date2005_benchmark() -> Self {
        AnalyticModel::new(512, 100, 10.0)
    }

    /// Eq. (1): baseline (DiagRSMarch over the bi-directional serial
    /// interface) cycle count without DRF diagnosis, `(17k + 9)·n·c`.
    pub fn baseline_cycles(&self, k: u64) -> u64 {
        (17 * k + 9) * self.words * self.width
    }

    /// Eq. (1) as a time breakdown.
    pub fn baseline_time(&self, k: u64) -> TimeBreakdown {
        TimeBreakdown {
            cycles: self.baseline_cycles(k),
            pause_ns: 0.0,
            clock_period_ns: self.clock_period_ns,
        }
    }

    /// Eq. (2): proposed scheme (March CW through SPC/PSC) cycle count
    /// without DRF diagnosis,
    /// `(5n + 5c + 5n(c+1)) + (3n + 3c + 2n(c+1))·⌈log2 c⌉`.
    pub fn proposed_cycles(&self) -> u64 {
        let n = self.words;
        let c = self.width;
        let log_c = u64::from(log2_ceil(c as usize).max(1));
        (5 * n + 5 * c + 5 * n * (c + 1)) + (3 * n + 3 * c + 2 * n * (c + 1)) * log_c
    }

    /// Eq. (2) as a time breakdown.
    pub fn proposed_time(&self) -> TimeBreakdown {
        TimeBreakdown {
            cycles: self.proposed_cycles(),
            pause_ns: 0.0,
            clock_period_ns: self.clock_period_ns,
        }
    }

    /// Eq. (3): diagnosis-time reduction factor without DRF diagnosis,
    /// `R = T[7,8] / T_proposed`.
    pub fn reduction_without_drf(&self, k: u64) -> f64 {
        self.baseline_cycles(k) as f64 / self.proposed_cycles() as f64
    }

    /// Baseline cycle count when the classical pause-based DRF extension
    /// is added: `8·k` extra units of serialised complexity.
    pub fn baseline_cycles_with_drf(&self, k: u64) -> u64 {
        self.baseline_cycles(k) + 8 * k * self.words * self.width
    }

    /// Baseline time including DRF diagnosis: the extra `8k` units plus
    /// the retention delay (the paper assumes 200 ms in total).
    pub fn baseline_time_with_drf(&self, k: u64, retention_delay_ms: f64) -> TimeBreakdown {
        TimeBreakdown {
            cycles: self.baseline_cycles_with_drf(k),
            pause_ns: retention_delay_ms * 1.0e6,
            clock_period_ns: self.clock_period_ns,
        }
    }

    /// Proposed cycle count including NWRTM DRF diagnosis: the paper
    /// charges 2 extra units (`Nw0`/`Nw1`) plus their pattern deliveries.
    pub fn proposed_cycles_with_drf(&self) -> u64 {
        self.proposed_cycles() + 2 * self.words + 2 * self.width
    }

    /// Proposed time including NWRTM DRF diagnosis (no pause at all).
    pub fn proposed_time_with_drf(&self) -> TimeBreakdown {
        TimeBreakdown {
            cycles: self.proposed_cycles_with_drf(),
            pause_ns: 0.0,
            clock_period_ns: self.clock_period_ns,
        }
    }

    /// Eq. (4): diagnosis-time reduction factor when DRF diagnosis is
    /// included on both sides.
    pub fn reduction_with_drf(&self, k: u64, retention_delay_ms: f64) -> f64 {
        self.baseline_time_with_drf(k, retention_delay_ms).total_ns()
            / self.proposed_time_with_drf().total_ns()
    }

    /// The paper's estimate of the minimum iteration count `k` for a
    /// defect population: the `M1` group covers 75 % of the faults and
    /// each iteration identifies at most two of them, so
    /// `k = ⌈faults · 0.75 / 2⌉`.
    pub fn iterations_for_faults(fault_count: u64) -> u64 {
        ((fault_count as f64 * 0.75) / 2.0).ceil() as u64
    }

    /// The paper's estimate of the maximum number of faults for a defect
    /// rate: defective cells spread over `n·c` cells, with the four
    /// defect classes of \[8\] assumed to pair into at most
    /// `n·c·rate / 2` distinguishable faulty cells (the case study turns
    /// 1 % of 51 200 cells into 256 faults).
    pub fn max_faults_for_defect_rate(&self, defect_rate: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&defect_rate),
            "defect rate must be within 0..=1"
        );
        ((self.words * self.width) as f64 * defect_rate / 2.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> AnalyticModel {
        AnalyticModel::date2005_benchmark()
    }

    #[test]
    fn benchmark_parameters_match_the_case_study() {
        let m = benchmark();
        assert_eq!(m.words, 512);
        assert_eq!(m.width, 100);
        assert_eq!(m.clock_period_ns, 10.0);
    }

    #[test]
    fn eq1_baseline_cycles() {
        // (17*96 + 9) * 512 * 100 = 84 019 200 cycles.
        assert_eq!(benchmark().baseline_cycles(96), 84_019_200);
        assert!((benchmark().baseline_time(96).total_ms() - 840.192).abs() < 1e-9);
    }

    #[test]
    fn eq2_proposed_cycles() {
        // (5n+5c+5n(c+1)) + (3n+3c+2n(c+1))*7 = 261 620 + 736 820 = 998 440.
        assert_eq!(benchmark().proposed_cycles(), 998_440);
        assert!((benchmark().proposed_time().total_ms() - 9.9844).abs() < 1e-9);
    }

    #[test]
    fn eq3_reduction_without_drf_is_at_least_84_for_the_case_study() {
        let r = benchmark().reduction_without_drf(96);
        assert!(r >= 84.0, "R = {r}");
        assert!(r < 86.0, "R = {r} should be close to the paper's 84");
    }

    #[test]
    fn eq4_reduction_with_drf_is_far_larger() {
        let r = benchmark().reduction_with_drf(96, 200.0);
        assert!(r > 140.0, "R = {r}");
        assert!(
            r < 150.0,
            "R = {r} should be in the paper's ballpark (>= 145 claimed)"
        );
        // And it must beat the DRF-free reduction by a wide margin.
        assert!(r > benchmark().reduction_without_drf(96));
    }

    #[test]
    fn iteration_estimate_matches_the_case_study() {
        // 1 % of 51 200 cells -> 256 faults -> k = 256 * 0.75 / 2 = 96.
        let faults = benchmark().max_faults_for_defect_rate(0.01);
        assert_eq!(faults, 256);
        assert_eq!(AnalyticModel::iterations_for_faults(faults), 96);
        assert_eq!(AnalyticModel::iterations_for_faults(0), 0);
        assert_eq!(AnalyticModel::iterations_for_faults(3), 2);
    }

    #[test]
    fn reduction_grows_with_defect_rate() {
        let m = benchmark();
        let low_k = AnalyticModel::iterations_for_faults(m.max_faults_for_defect_rate(0.001));
        let high_k = AnalyticModel::iterations_for_faults(m.max_faults_for_defect_rate(0.05));
        assert!(m.reduction_without_drf(high_k) > m.reduction_without_drf(low_k));
    }

    #[test]
    fn proposed_drf_overhead_is_negligible() {
        let m = benchmark();
        let extra = m.proposed_cycles_with_drf() - m.proposed_cycles();
        assert_eq!(extra, 2 * 512 + 2 * 100);
        let ratio = extra as f64 / m.proposed_cycles() as f64;
        assert!(ratio < 0.002, "NWRTM cost must be well below 1 % ({ratio})");
    }

    #[test]
    fn baseline_drf_overhead_is_dominated_by_the_200ms_pause() {
        let m = benchmark();
        let with = m.baseline_time_with_drf(96, 200.0).total_ns();
        let without = m.baseline_time(96).total_ns();
        assert!(with - without > 2.0e8);
    }

    #[test]
    fn breakdown_display_is_informative() {
        let text = benchmark().proposed_time().to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("ms"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _ = AnalyticModel::new(0, 8, 10.0);
    }
}
