//! Shared handling for the workspace's `ESRAM_*` configuration
//! variables.
//!
//! Libraries do not read the environment. An entry point (the CLI, a
//! bench harness or a test) reads a variable itself and hands the raw
//! value to the knob's parser.
//!
//! Every knob follows one discipline: a value that is *unset* silently
//! takes the default; a value that is *set but malformed* takes the
//! same default **loudly** — a warning naming the variable, the
//! rejected value and the fallback is printed to stderr, at most once
//! per variable per process. A silently ignored typo in a CI job would
//! otherwise test the wrong configuration while claiming to test the
//! right one. [`parse_knob`] and [`read_knob`] implement it, so a knob
//! cannot grow a bespoke (and subtly different) fallback path.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// A set-but-malformed environment knob and the value that was used in
/// its place, as reported by [`parse_knob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFallback {
    /// The environment variable holding the rejected value.
    pub variable: &'static str,
    /// The raw value that failed to parse.
    pub rejected: String,
    /// Human-readable description of what was used instead.
    pub fallback: String,
}

impl EnvFallback {
    /// Prints the fallback warning to stderr, at most once per variable
    /// per process (repeated reads — one per diagnosis run —
    /// must not turn one typo into a warning flood). The once-per-
    /// variable registry is shared by every knob, so adding a knob can
    /// never fork the warning discipline.
    pub fn warn_once(&self) {
        static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut warned = WARNED.lock().expect("env warning registry poisoned");
        if warned.insert(self.variable) {
            eprintln!(
                "warning: {}={:?} is not a valid value; falling back to {}",
                self.variable, self.rejected, self.fallback
            );
        }
    }
}

/// Pure core of every knob read: parses a raw value (`None` = unset)
/// with the knob's own parser, and reports an [`EnvFallback`] when the
/// value was set but rejected. Exposed so malformed cases are
/// unit-testable without mutating process-global environment state.
///
/// `fallback` describes what a rejected value degrades to; it is only
/// invoked when a report is actually produced.
pub fn parse_knob<T>(
    variable: &'static str,
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Option<T>,
    fallback: impl FnOnce() -> String,
) -> (Option<T>, Option<EnvFallback>) {
    match raw {
        None => (None, None),
        Some(raw) => match parse(raw) {
            Some(value) => (Some(value), None),
            None => (
                None,
                Some(EnvFallback {
                    variable,
                    rejected: raw.to_string(),
                    fallback: fallback(),
                }),
            ),
        },
    }
}

/// [`parse_knob`] for a value the caller read from the environment,
/// warning (once per variable) on malformed values. Returns `None` both
/// for an unset knob and for a rejected one — the caller supplies the
/// same default either way.
pub fn read_knob<T>(
    variable: &'static str,
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Option<T>,
    fallback: impl FnOnce() -> String,
) -> Option<T> {
    let (value, report) = parse_knob(variable, raw, parse, fallback);
    if let Some(report) = report {
        report.warn_once();
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knob_is_not_a_fallback() {
        let (value, report) = parse_knob(
            "ESRAM_TEST_UNSET",
            None,
            |raw| raw.parse::<u32>().ok(),
            || "default".to_string(),
        );
        assert_eq!(value, None);
        assert_eq!(report, None);
    }

    #[test]
    fn well_formed_knob_parses_without_report() {
        let (value, report) = parse_knob(
            "ESRAM_TEST_OK",
            Some("7"),
            |raw| raw.parse::<u32>().ok(),
            || unreachable!("fallback description must not be built on success"),
        );
        assert_eq!(value, Some(7));
        assert_eq!(report, None);
    }

    #[test]
    fn malformed_knob_reports_variable_value_and_fallback() {
        let (value, report) = parse_knob(
            "ESRAM_TEST_BAD",
            Some("garbage"),
            |raw| raw.parse::<u32>().ok(),
            || "the default (42)".to_string(),
        );
        assert_eq!(value, None::<u32>);
        let report = report.expect("malformed value must be reported");
        assert_eq!(report.variable, "ESRAM_TEST_BAD");
        assert_eq!(report.rejected, "garbage");
        assert!(report.fallback.contains("42"));
        // Warning twice must not panic (and prints at most once).
        report.warn_once();
        report.warn_once();
    }
}
