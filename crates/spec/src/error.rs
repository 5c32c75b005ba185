//! Span-bearing spec errors.
//!
//! Every failure mode in the spec pipeline — TOML syntax, schema
//! validation, plan compilation — is one [`SpecErrorKind`] variant
//! attached to the [`Span`] where the offending token starts. The CLI
//! prints the [`Display`](std::fmt::Display) form verbatim, so the CI negative rows can
//! grep for `line` and the exact failure wording.

use crate::toml::Span;
use std::fmt;

/// A spec rejection: what went wrong and where.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The failure.
    pub kind: SpecErrorKind,
    /// Where the offending token starts (1-based line/column).
    pub span: Span,
}

impl SpecError {
    /// Builds an error at a span.
    pub fn new(kind: SpecErrorKind, span: Span) -> Self {
        SpecError { kind, span }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error at {}: {}", self.span, self.kind)
    }
}

impl std::error::Error for SpecError {}

/// Every way a spec can be rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecErrorKind {
    // ---- TOML syntax -------------------------------------------------
    /// A `key = value` line whose key is missing or malformed.
    ExpectedKey,
    /// A `key = value` line without the `=`.
    ExpectedEquals,
    /// A `key =` line without a value.
    ExpectedValue,
    /// A basic string missing its closing quote.
    UnterminatedString,
    /// A `[section]` / `[[section]]` header missing its bracket(s).
    UnterminatedHeader,
    /// A single-line array missing its closing bracket.
    UnterminatedArray,
    /// An unknown escape sequence inside a basic string.
    InvalidEscape,
    /// A scalar token that is not a string, integer, float or boolean.
    InvalidValue(String),
    /// Extra tokens after a complete value or header.
    TrailingGarbage,
    /// The same key assigned twice in one table.
    DuplicateKey(String),
    /// The same `[section]` header opened twice.
    DuplicateSection(String),
    /// Arrays nested deeper than [`MAX_NESTING`](crate::MAX_NESTING).
    NestingTooDeep,

    // ---- schema validation -------------------------------------------
    /// A key before the first `[section]` header.
    RootKey(String),
    /// A `[section]` the schema does not define.
    UnknownSection(String),
    /// A key the enclosing section's schema does not define.
    UnknownKey(String),
    /// A required section that never appeared.
    MissingSection(&'static str),
    /// A required key that never appeared in its section.
    MissingKey(&'static str),
    /// A value of the wrong TOML type.
    WrongType {
        /// The key whose value has the wrong type.
        key: String,
        /// The type the schema expects.
        expected: &'static str,
        /// The type that was parsed.
        found: &'static str,
    },
    /// An integer outside the range its key allows.
    OutOfRange {
        /// The key whose value is out of range.
        key: String,
        /// Human-readable description of the allowed range.
        allowed: &'static str,
    },
    /// A memory geometry the SRAM model rejects.
    InvalidGeometry(String),
    /// A `[scheme] kind` other than `fast` / `baseline`.
    UnknownScheme(String),
    /// A `[scheme] drf` other than `none` / `nwrtm` / `pause`.
    UnknownDrf(String),
    /// `drf = "pause"` without a `pause_ms` value.
    MissingPause,
    /// A key that is valid in general but not under the selected
    /// scheme/drf combination.
    InapplicableKey {
        /// The offending key.
        key: String,
        /// Why it does not apply here.
        context: String,
    },
    /// An `[execution] kernel` the diagnosis engine does not know.
    UnknownKernel(String),
    /// An `[execution] faultsim_kernel` the fault simulator does not
    /// know.
    UnknownFaultSimKernel(String),
    /// A `[defects] classes` entry naming no modelled fault class.
    UnknownFaultClass(String),
    /// A `[defects] classes` key given as an empty array.
    EmptyClasses,
    /// A defect rate outside `[0, 1]`.
    InvalidDefectRate(f64),
    /// A clock period that is not a positive finite number.
    InvalidClock(f64),
    /// A spec whose `[[memory]]` groups describe zero memories.
    EmptyMemories,
    /// A `[sweep]` axis given as an empty array.
    EmptySweep(&'static str),
    /// A scenario name that is empty or unusable as a directory name.
    InvalidName(String),
}

impl fmt::Display for SpecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecErrorKind::ExpectedKey => write!(f, "expected a key"),
            SpecErrorKind::ExpectedEquals => write!(f, "expected '=' after the key"),
            SpecErrorKind::ExpectedValue => write!(f, "expected a value"),
            SpecErrorKind::UnterminatedString => write!(f, "unterminated string"),
            SpecErrorKind::UnterminatedHeader => write!(f, "unterminated section header"),
            SpecErrorKind::UnterminatedArray => write!(f, "unterminated array"),
            SpecErrorKind::InvalidEscape => write!(f, "invalid escape sequence"),
            SpecErrorKind::InvalidValue(token) => write!(f, "'{token}' is not a valid value"),
            SpecErrorKind::TrailingGarbage => write!(f, "trailing garbage after the value"),
            SpecErrorKind::DuplicateKey(key) => write!(f, "key '{key}' is assigned twice"),
            SpecErrorKind::DuplicateSection(name) => write!(f, "section [{name}] appears twice"),
            SpecErrorKind::NestingTooDeep => {
                write!(f, "arrays nested more than {} deep", crate::MAX_NESTING)
            }
            SpecErrorKind::RootKey(key) => {
                write!(f, "key '{key}' appears before any section header")
            }
            SpecErrorKind::UnknownSection(name) => write!(f, "unknown section [{name}]"),
            SpecErrorKind::UnknownKey(key) => write!(f, "unknown key '{key}'"),
            SpecErrorKind::MissingSection(name) => write!(f, "missing required section [{name}]"),
            SpecErrorKind::MissingKey(key) => write!(f, "missing required key '{key}'"),
            SpecErrorKind::WrongType { key, expected, found } => {
                write!(f, "key '{key}' expects a {expected}, found a {found}")
            }
            SpecErrorKind::OutOfRange { key, allowed } => {
                write!(f, "key '{key}' is out of range (allowed: {allowed})")
            }
            SpecErrorKind::InvalidGeometry(detail) => write!(f, "invalid memory geometry: {detail}"),
            SpecErrorKind::UnknownScheme(kind) => {
                write!(f, "unknown scheme kind '{kind}' (expected 'fast' or 'baseline')")
            }
            SpecErrorKind::UnknownDrf(mode) => {
                write!(
                    f,
                    "unknown drf mode '{mode}' (expected 'none', 'nwrtm' or 'pause')"
                )
            }
            SpecErrorKind::MissingPause => {
                write!(f, "drf = \"pause\" requires a 'pause_ms' value")
            }
            SpecErrorKind::InapplicableKey { key, context } => {
                write!(f, "key '{key}' does not apply here: {context}")
            }
            SpecErrorKind::UnknownKernel(name) => {
                write!(
                    f,
                    "unknown kernel '{name}' (expected 'bit-parallel' or 'per-memory')"
                )
            }
            SpecErrorKind::UnknownFaultSimKernel(name) => {
                write!(
                    f,
                    "unknown faultsim kernel '{name}' (expected 'lanes' or 'permem')"
                )
            }
            SpecErrorKind::UnknownFaultClass(name) => {
                write!(
                    f,
                    "unknown fault class '{name}' (expected e.g. 'stuck-at' or 'transition')"
                )
            }
            SpecErrorKind::EmptyClasses => {
                write!(f, "'classes' must name at least one fault class when present")
            }
            SpecErrorKind::InvalidDefectRate(rate) => {
                write!(f, "defect rate {rate} is outside [0, 1]")
            }
            SpecErrorKind::InvalidClock(clock) => {
                write!(f, "clock period {clock} ns is not a positive finite number")
            }
            SpecErrorKind::EmptyMemories => {
                write!(
                    f,
                    "the spec describes zero memories (need at least one [[memory]] group)"
                )
            }
            SpecErrorKind::EmptySweep(axis) => write!(f, "sweep axis '{axis}' is an empty array"),
            SpecErrorKind::InvalidName(name) => {
                write!(f, "name '{name}' is empty or not usable as a directory name")
            }
        }
    }
}
