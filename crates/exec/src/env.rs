//! Centralised environment-knob handling for the workspace's
//! `ESRAM_*` configuration variables.
//!
//! Every knob follows the same discipline, introduced for the executor
//! knobs and regressed-prone enough to deserve one shared
//! implementation: a value that is *unset* silently takes the default;
//! a value that is *set but malformed* takes the same default **loudly**
//! — a warning naming the variable, the rejected value and the fallback
//! is printed to stderr, at most once per variable per process. A
//! silently ignored typo in a CI matrix would otherwise test the wrong
//! configuration while claiming to test the right one.
//!
//! The knobs themselves live next to the subsystems they configure
//! ([`crate::plan::THREADS_ENV`], [`crate::plan::SCHED_ENV`],
//! [`crate::calibrate::CALIB_ENV`], and `bisd`'s `ESRAM_DIAG_KERNEL`);
//! they all parse through [`parse_knob`] / [`read_knob`] so a new knob
//! cannot re-introduce a bespoke (and subtly different) fallback path.
//! The march fault-simulation kernel selector ([`FAULTSIM_KERNEL_ENV`])
//! is the exception that proves the rule: its enum lives *here* rather
//! than in `march` so the ambient `env_guard` suite (which cannot
//! depend on `march`) can validate a CI matrix row's value before any
//! job runs under it.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Environment override for the `esram` CLI's report output directory.
///
/// The CLI's `--out` flag wins over this knob, which wins over the
/// spec's own `[report] dir`. The knob lives here — not in the CLI —
/// so it parses through the same warn-once discipline as every other
/// `ESRAM_*` variable and the ambient `env_guard` suite can assert a
/// CI matrix row's value is well-formed before any job runs under it.
pub const SPEC_OUT_ENV: &str = "ESRAM_SPEC_OUT";

/// Parser for [`SPEC_OUT_ENV`]: any non-blank path is accepted
/// verbatim; a set-but-blank value is malformed (it would silently
/// write reports to the current directory while the environment claims
/// an override is in force).
pub fn parse_spec_out(raw: &str) -> Option<String> {
    let trimmed = raw.trim();
    (!trimmed.is_empty()).then(|| raw.to_string())
}

/// Reads the CLI output-directory override from the environment through
/// [`read_knob`]: unset (or set-but-blank, after a warning) yields
/// `None` and the caller falls back to its own default.
pub fn spec_out_from_env() -> Option<String> {
    read_knob(SPEC_OUT_ENV, parse_spec_out, || {
        "the spec's own report directory".to_string()
    })
}

/// Environment variable selecting the march fault-simulation kernel.
///
/// `lanes` (the default) simulates up to 64 compatible faults per
/// march-schedule replay by packing one faulty machine into each bit
/// lane of a `u64`; `permem` is the original one-memory-per-fault path,
/// retained wholesale as the equivalence oracle. The two kernels are
/// byte-identical on every outcome; the knob only moves work between
/// them.
pub const FAULTSIM_KERNEL_ENV: &str = "ESRAM_FAULTSIM_KERNEL";

/// Which fault-simulation kernel `march::FaultSimulator` runs.
///
/// The enum lives in `esram-exec` (not `march`) so the ambient
/// `env_guard` suite can parse [`FAULTSIM_KERNEL_ENV`] without a
/// dependency cycle; `march` re-exports it as its own public knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSimKernel {
    /// Lane-parallel kernel: up to 64 faulty machines per schedule
    /// replay, one per bit lane of a `u64`, with per-fault fallback for
    /// the classes the lane transposition cannot express.
    #[default]
    Lanes,
    /// The original per-fault kernel: one full (row-pruned) schedule
    /// replay on a dedicated memory per fault. Kept as the equivalence
    /// oracle.
    PerMemory,
}

impl FaultSimKernel {
    /// Parses a kernel name, accepting the spellings used in CI job
    /// names and on the command line. Unknown values yield `None` so
    /// [`read_knob`] can warn and fall back.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "lanes" | "lane" | "lane-parallel" => Some(FaultSimKernel::Lanes),
            "permem" | "per-memory" | "permemory" => Some(FaultSimKernel::PerMemory),
            _ => None,
        }
    }

    /// Reads [`FAULTSIM_KERNEL_ENV`] through the warn-once knob
    /// discipline; unset or malformed values yield the default
    /// (lane-parallel) kernel.
    pub fn from_env() -> Self {
        read_knob(FAULTSIM_KERNEL_ENV, Self::parse, || {
            format!("the default kernel ({})", FaultSimKernel::default())
        })
        .unwrap_or_default()
    }

    /// Every kernel, for exhaustive equivalence sweeps.
    pub fn all() -> [FaultSimKernel; 2] {
        [FaultSimKernel::Lanes, FaultSimKernel::PerMemory]
    }
}

impl std::fmt::Display for FaultSimKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSimKernel::Lanes => write!(f, "lanes"),
            FaultSimKernel::PerMemory => write!(f, "permem"),
        }
    }
}

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
    /// per process (repeated `from_env` calls — one per diagnosis run —
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

/// Reads a knob from the live environment through [`parse_knob`],
/// warning (once per variable) on malformed values. Returns `None` both
/// for an unset knob and for a rejected one — the caller supplies the
/// same default either way.
pub fn read_knob<T>(
    variable: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
    fallback: impl FnOnce() -> String,
) -> Option<T> {
    let raw = std::env::var(variable).ok();
    let (value, report) = parse_knob(variable, raw.as_deref(), parse, fallback);
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
    fn spec_out_accepts_any_non_blank_path_and_rejects_blank_ones() {
        assert_eq!(parse_spec_out("/tmp/reports"), Some("/tmp/reports".to_string()));
        assert_eq!(parse_spec_out("relative/dir"), Some("relative/dir".to_string()));
        // Leading/trailing whitespace alone is not a directory.
        assert_eq!(parse_spec_out(""), None);
        assert_eq!(parse_spec_out("   "), None);
        // And through the shared parse path the rejection is reported.
        let (value, report) = parse_knob(SPEC_OUT_ENV, Some(""), parse_spec_out, || {
            "the spec's own report directory".to_string()
        });
        assert_eq!(value, None::<String>);
        assert!(report.is_some());
    }

    #[test]
    fn faultsim_kernel_parses_every_supported_spelling() {
        for kernel in FaultSimKernel::all() {
            // The canonical Display spelling round-trips.
            assert_eq!(FaultSimKernel::parse(&kernel.to_string()), Some(kernel));
        }
        assert_eq!(FaultSimKernel::parse(" LANES "), Some(FaultSimKernel::Lanes));
        assert_eq!(
            FaultSimKernel::parse("lane-parallel"),
            Some(FaultSimKernel::Lanes)
        );
        assert_eq!(
            FaultSimKernel::parse("per-memory"),
            Some(FaultSimKernel::PerMemory)
        );
        assert_eq!(FaultSimKernel::parse("lnaes"), None);
        assert_eq!(FaultSimKernel::parse(""), None);
        assert_eq!(FaultSimKernel::default(), FaultSimKernel::Lanes);
    }

    #[test]
    fn faultsim_kernel_malformed_value_reports_fallback() {
        let (value, report) = parse_knob(FAULTSIM_KERNEL_ENV, Some("lnaes"), FaultSimKernel::parse, || {
            format!("the default kernel ({})", FaultSimKernel::default())
        });
        assert_eq!(value, None::<FaultSimKernel>);
        let report = report.expect("malformed kernel must be reported");
        assert_eq!(report.variable, FAULTSIM_KERNEL_ENV);
        assert!(report.fallback.contains("lanes"));
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
