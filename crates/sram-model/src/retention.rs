//! Retention-time model for data-retention fault observability.
//!
//! A data-retention fault only becomes visible after the defective node
//! has had time to discharge. Classical DRF testing therefore inserts a
//! predetermined pause (the paper quotes 100 ms per state, 200 ms total
//! for both states) between a write and the verifying read. The NWRTM
//! DFT technique removes the pause entirely; the [`RetentionModel`]
//! captures the pause-based alternative so the two approaches can be
//! compared quantitatively.

use std::fmt;

/// Parameters of pause-based data-retention testing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionModel {
    /// Minimum pause (milliseconds) after which a defective node has
    /// discharged enough to flip the cell value.
    pub decay_threshold_ms: f64,
    /// Pause the test schedule actually inserts per retention state
    /// (milliseconds). Must be at least `decay_threshold_ms` for the
    /// pause-based test to detect DRFs.
    pub pause_ms: f64,
}

impl RetentionModel {
    /// The values used throughout the paper: a 100 ms pause per state
    /// (200 ms total for the two states), with decay completing within
    /// that pause.
    pub fn date2005() -> Self {
        RetentionModel {
            decay_threshold_ms: 100.0,
            pause_ms: 100.0,
        }
    }

    /// Creates a retention model.
    ///
    /// # Panics
    ///
    /// Panics if either duration is negative or not finite.
    pub fn new(decay_threshold_ms: f64, pause_ms: f64) -> Self {
        assert!(decay_threshold_ms.is_finite() && decay_threshold_ms >= 0.0);
        assert!(pause_ms.is_finite() && pause_ms >= 0.0);
        RetentionModel {
            decay_threshold_ms,
            pause_ms,
        }
    }

    /// True if the configured pause is long enough to expose DRFs.
    pub fn pause_exposes_drf(&self) -> bool {
        self.pause_ms >= self.decay_threshold_ms
    }
}

impl Default for RetentionModel {
    fn default() -> Self {
        RetentionModel::date2005()
    }
}

impl fmt::Display for RetentionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retention(pause={}ms, threshold={}ms)",
            self.pause_ms, self.decay_threshold_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date2005_defaults_match_paper() {
        let model = RetentionModel::date2005();
        assert_eq!(model.pause_ms, 100.0);
        assert_eq!(model.decay_threshold_ms, 100.0);
        assert!(model.pause_exposes_drf());
        assert_eq!(RetentionModel::default(), model);
    }

    #[test]
    fn short_pause_does_not_expose_drf() {
        let model = RetentionModel::new(100.0, 10.0);
        assert!(!model.pause_exposes_drf());
    }

    #[test]
    #[should_panic]
    fn negative_pause_panics() {
        let _ = RetentionModel::new(100.0, -1.0);
    }

    #[test]
    fn display_mentions_both_durations() {
        let s = RetentionModel::date2005().to_string();
        assert!(s.contains("100"));
        assert!(s.contains("pause"));
    }
}
