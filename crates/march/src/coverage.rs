//! Coverage reports: detection and location statistics per fault class.

use fault_models::FaultClass;
use std::collections::BTreeMap;
use std::fmt;

/// Detection/location statistics for one fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCoverage {
    /// Number of fault instances simulated.
    pub total: usize,
    /// Instances whose presence produced at least one read mismatch.
    pub detected: usize,
    /// Instances whose faulty cell (or faulty address, for decoder
    /// faults) appears among the failing sites — i.e. the fault can be
    /// *located*, not merely detected, which is what diagnosis requires.
    pub located: usize,
}

impl ClassCoverage {
    /// Detection coverage in `[0, 1]` (1.0 for an empty class).
    pub fn detection(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }

    /// Location (diagnosis) coverage in `[0, 1]` (1.0 for an empty class).
    pub fn location(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.located as f64 / self.total as f64
        }
    }
}

/// Coverage of a March programme (or a complete diagnosis scheme) over a
/// fault universe, broken down per fault class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageReport {
    name: String,
    classes: BTreeMap<FaultClass, ClassCoverage>,
}

impl CoverageReport {
    /// Creates an empty report labelled with the programme name.
    pub fn new(name: impl Into<String>) -> Self {
        CoverageReport {
            name: name.into(),
            classes: BTreeMap::new(),
        }
    }

    /// Name of the programme the report describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records the outcome of one simulated fault instance.
    pub fn record(&mut self, class: FaultClass, detected: bool, located: bool) {
        let entry = self.classes.entry(class).or_default();
        entry.total += 1;
        if detected {
            entry.detected += 1;
        }
        if located {
            entry.located += 1;
        }
    }

    /// Folds another report's statistics into this one, class by class
    /// (the report name is kept from `self`).
    ///
    /// Merging is associative and commutative over the counters, so
    /// per-shard reports produced by parallel universe simulation fold
    /// into exactly the report a sequential run would have produced,
    /// regardless of shard boundaries or fold order.
    pub fn merge(&mut self, other: &CoverageReport) {
        for (class, coverage) in other.classes() {
            let entry = self.classes.entry(class).or_default();
            entry.total += coverage.total;
            entry.detected += coverage.detected;
            entry.located += coverage.located;
        }
    }

    /// Per-class statistics in class order.
    pub fn classes(&self) -> impl Iterator<Item = (FaultClass, ClassCoverage)> + '_ {
        self.classes.iter().map(|(&class, &coverage)| (class, coverage))
    }

    /// Statistics for one class, if any instance of it was simulated.
    pub fn class(&self, class: FaultClass) -> Option<ClassCoverage> {
        self.classes.get(&class).copied()
    }

    /// Total number of simulated fault instances.
    pub fn total(&self) -> usize {
        self.classes.values().map(|c| c.total).sum()
    }

    /// Total detected instances.
    pub fn detected(&self) -> usize {
        self.classes.values().map(|c| c.detected).sum()
    }

    /// Total located instances.
    pub fn located(&self) -> usize {
        self.classes.values().map(|c| c.located).sum()
    }

    /// Overall detection coverage in `[0, 1]`.
    pub fn detection_coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.detected() as f64 / self.total() as f64
        }
    }

    /// Overall location coverage in `[0, 1]`.
    pub fn location_coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.located() as f64 / self.total() as f64
        }
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.1}% detection, {:.1}% location over {} faults",
            self.name,
            self.detection_coverage() * 100.0,
            self.location_coverage() * 100.0,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_has_full_coverage_by_convention() {
        let report = CoverageReport::new("empty");
        assert_eq!(report.total(), 0);
        assert_eq!(report.detection_coverage(), 1.0);
        assert_eq!(report.location_coverage(), 1.0);
        assert_eq!(ClassCoverage::default().detection(), 1.0);
    }

    #[test]
    fn record_accumulates_per_class() {
        let mut report = CoverageReport::new("demo");
        report.record(FaultClass::StuckAt, true, true);
        report.record(FaultClass::StuckAt, true, false);
        report.record(FaultClass::DataRetention, false, false);
        let sa = report.class(FaultClass::StuckAt).unwrap();
        assert_eq!(sa.total, 2);
        assert_eq!(sa.detected, 2);
        assert_eq!(sa.located, 1);
        assert_eq!(sa.detection(), 1.0);
        assert_eq!(sa.location(), 0.5);
        let drf = report.class(FaultClass::DataRetention).unwrap();
        assert_eq!(drf.detection(), 0.0);
        assert_eq!(report.total(), 3);
        assert!((report.detection_coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((report.location_coverage() - 1.0 / 3.0).abs() < 1e-12);
        assert!(report.class(FaultClass::Coupling).is_none());
    }

    #[test]
    fn merge_folds_counters_associatively() {
        let mut left = CoverageReport::new("shard 0");
        left.record(FaultClass::StuckAt, true, true);
        left.record(FaultClass::Coupling, false, false);
        let mut right = CoverageReport::new("shard 1");
        right.record(FaultClass::StuckAt, true, false);
        right.record(FaultClass::DataRetention, true, true);

        let mut sequential = CoverageReport::new("shard 0");
        for (class, detected, located) in [
            (FaultClass::StuckAt, true, true),
            (FaultClass::Coupling, false, false),
            (FaultClass::StuckAt, true, false),
            (FaultClass::DataRetention, true, true),
        ] {
            sequential.record(class, detected, located);
        }

        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, sequential);
        assert_eq!(merged.name(), "shard 0");

        // Fold order does not matter for the counters.
        let mut reversed = CoverageReport::new("shard 0");
        reversed.merge(&right);
        reversed.merge(&left);
        assert_eq!(reversed.total(), merged.total());
        assert_eq!(reversed.detected(), merged.detected());
        assert_eq!(reversed.located(), merged.located());

        // Merging an empty report is the identity.
        let before = merged.clone();
        merged.merge(&CoverageReport::new("empty"));
        assert_eq!(merged, before);
    }

    #[test]
    fn display_names_the_report_and_counts_faults() {
        let mut report = CoverageReport::new("March CW + NWRTM");
        report.record(FaultClass::StuckAt, true, true);
        report.record(FaultClass::DataRetention, true, true);
        assert!(report.to_string().contains("March CW + NWRTM"));
        assert!(report.to_string().contains("2 faults"));
    }
}
