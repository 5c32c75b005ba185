//! March schedules: sequences of (data background, March test) phases.
//!
//! Algorithms that use a single data background are plain
//! [`MarchTest`]s; algorithms such as March CW repeat element groups
//! under several backgrounds. A [`MarchSchedule`] captures the full
//! multi-background programme the BISD controller executes.

use crate::background::{BackgroundPatterns, DataBackground};
use crate::ops::MarchTest;
use std::fmt;

/// One phase of a schedule: a March test executed under one background.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePhase {
    /// Data background active during this phase.
    pub background: DataBackground,
    /// March test executed during this phase.
    pub test: MarchTest,
}

impl SchedulePhase {
    /// Creates a phase.
    pub fn new(background: DataBackground, test: MarchTest) -> Self {
        SchedulePhase { background, test }
    }
}

/// A complete multi-background March programme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchSchedule {
    name: String,
    phases: Vec<SchedulePhase>,
}

impl MarchSchedule {
    /// Creates a schedule from its phases.
    pub fn new(name: impl Into<String>, phases: Vec<SchedulePhase>) -> Self {
        MarchSchedule {
            name: name.into(),
            phases,
        }
    }

    /// Wraps a single-background test into a one-phase schedule.
    pub fn single(test: MarchTest, background: DataBackground) -> Self {
        let name = test.name().to_string();
        MarchSchedule {
            name,
            phases: vec![SchedulePhase::new(background, test)],
        }
    }

    /// Name of the programme (e.g. `"March CW"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[SchedulePhase] {
        &self.phases
    }

    /// Total operations per address summed over all phases.
    pub fn complexity_per_address(&self) -> usize {
        self.phases.iter().map(|p| p.test.complexity_per_address()).sum()
    }

    /// Total operations for a memory with `words` addresses.
    pub fn operation_count(&self, words: u64) -> u64 {
        self.phases.iter().map(|p| p.test.operation_count(words)).sum()
    }

    /// Total read operations for a memory with `words` addresses.
    pub fn read_count(&self, words: u64) -> u64 {
        self.phases.iter().map(|p| p.test.read_count(words)).sum()
    }

    /// Total write operations for a memory with `words` addresses.
    pub fn write_count(&self, words: u64) -> u64 {
        self.phases.iter().map(|p| p.test.write_count(words)).sum()
    }

    /// Total number of March elements across all phases.
    pub fn element_count(&self) -> usize {
        self.phases.iter().map(|p| p.test.element_count()).sum()
    }

    /// Total retention-pause time in milliseconds across all phases.
    pub fn pause_ms(&self) -> u64 {
        self.phases.iter().map(|p| p.test.pause_ms()).sum()
    }

    /// True if any phase contains NWRC writes.
    pub fn has_nwrc(&self) -> bool {
        self.phases.iter().any(|p| p.test.has_nwrc())
    }

    /// True if any phase contains retention pauses.
    pub fn has_pause(&self) -> bool {
        self.phases.iter().any(|p| p.test.has_pause())
    }

    /// Applies a test transformation (e.g. the NWRTM merge) to the last
    /// phase of the schedule, returning the transformed schedule.
    pub fn map_last_phase<F>(&self, name: impl Into<String>, transform: F) -> MarchSchedule
    where
        F: FnOnce(&MarchTest) -> MarchTest,
    {
        let mut phases = self.phases.clone();
        if let Some(last) = phases.last_mut() {
            last.test = transform(&last.test);
        }
        MarchSchedule {
            name: name.into(),
            phases,
        }
    }
}

/// The per-phase [`BackgroundPatterns`] of one schedule at one IO width,
/// precomputed once and borrowed by every run.
///
/// Batched fault simulation executes the same schedule thousands of
/// times (once per fault); building the pattern words per run would put
/// `O(width)` bit assembly back on the hot path, so the simulator builds
/// a `SchedulePatterns` once per universe and every worker thread
/// borrows it (the patterns are immutable shared data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePatterns {
    phases: Vec<BackgroundPatterns>,
}

impl SchedulePatterns {
    /// Precomputes the pattern words of every phase of `schedule` for a
    /// memory of `width` IO bits.
    pub fn new(schedule: &MarchSchedule, width: usize) -> Self {
        SchedulePatterns {
            phases: schedule
                .phases()
                .iter()
                .map(|phase| phase.background.patterns(width))
                .collect(),
        }
    }

    /// The precomputed patterns of phase `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (the patterns were built for a
    /// different schedule).
    pub fn phase(&self, index: usize) -> &BackgroundPatterns {
        &self.phases[index]
    }
}

impl fmt::Display for MarchSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} phases, {} ops/address)",
            self.name,
            self.phases.len(),
            self.complexity_per_address()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;

    #[test]
    fn single_wraps_a_test() {
        let schedule = MarchSchedule::single(algorithms::march_c_minus(), DataBackground::Solid);
        assert_eq!(schedule.name(), "March C-");
        assert_eq!(schedule.phases().len(), 1);
        assert_eq!(schedule.complexity_per_address(), 10);
        assert_eq!(schedule.operation_count(512), 5120);
    }

    #[test]
    fn march_cw_schedule_counts_match_eq2_structure() {
        // March CW for c = 100: 10 ops/address under solid background plus
        // 7 background phases of 5 ops/address = 45 ops/address total.
        let schedule = algorithms::march_cw(100);
        assert_eq!(schedule.complexity_per_address(), 10 + 7 * 5);
        assert_eq!(schedule.read_count(1), 5 + 7 * 2);
        assert_eq!(schedule.write_count(1), 5 + 7 * 3);
        assert!(!schedule.has_nwrc());
    }

    #[test]
    fn map_last_phase_applies_nwrtm_to_the_final_phase_only() {
        let schedule = algorithms::march_cw(8);
        let with_drf = schedule.map_last_phase("March CW + NWRTM", algorithms::with_nwrtm);
        assert!(with_drf.has_nwrc());
        assert_eq!(with_drf.name(), "March CW + NWRTM");
        // Only the last phase gained operations.
        assert_eq!(
            with_drf.complexity_per_address(),
            schedule.complexity_per_address() + 5
        );
        assert!(!with_drf.phases()[0].test.has_nwrc());
        assert!(with_drf.phases().last().unwrap().test.has_nwrc());
    }

    #[test]
    fn display_summarises_the_schedule() {
        let text = algorithms::march_cw(100).to_string();
        assert!(text.contains("March CW"));
        assert!(text.contains("8 phases"));
        assert!(text.contains("45 ops/address"));
    }
}
