//! The scenario-spec schema: what a well-formed spec file means.
//!
//! [`ScenarioSpec::parse`] turns spec source into a fully validated
//! value — every key type-checked, every range enforced, every unknown
//! key or section rejected with the span where it appears. A validated
//! spec then compiles into a [`DiagnosisPlan`] (the sweep grid expanded
//! into concrete jobs) infallibly, so nothing downstream of `parse` can
//! surprise the operator.
//!
//! The schema (defaults in parentheses):
//!
//! ```toml
//! [scenario]
//! name = "case_study"     # required; used as the default output dir name
//! seed = 42               # (0xDA7E2005) defect-injection seed
//!
//! [[memory]]              # at least one group required
//! count = 8               # (1) memories of this geometry
//! words = 512             # required, >= 1
//! width = 100             # required, 1..=128
//!                         # count × words × width, summed over the
//!                         # groups and multiplied by the sweep's job
//!                         # count, must not exceed MAX_CELLS (2^30)
//!
//! [defects]
//! rate = 0.01             # (0.0) per-cell defect rate, within [0, 1]
//! classes = ["stuck-at"]  # (paper's four-class mix) explicit fault classes
//! data_retention = true   # (false) include data-retention faults
//! spares = 4              # (4) spare words per memory
//!
//! [scheme]
//! kind = "fast"           # ("fast") or "baseline"
//! clock_ns = 10.0         # (10.0) BIST clock period
//! drf = "nwrtm"           # fast: "none" | "nwrtm" (default) | "pause"
//!                         # baseline: "none" (default) | "pause"
//! pause_ms = 100          # required iff drf = "pause"
//! max_iterations = 4096   # (4096) baseline only
//!
//! [execution]
//! kernel = "bit-parallel" # ("bit-parallel") or "per-memory"; an unset
//!                         # kernel runs bit-parallel but is reported as
//!                         # "inherit", so existing report bytes hold
//! faultsim_kernel = "lanes" # or "permem"; recorded in the report, not applied
//!
//! [sweep]                 # optional; axes form a cartesian job grid
//! defect_rates = [0.001, 0.01, 0.1]
//! seeds = [1, 2, 3]
//!
//! [report]
//! dir = "out"             # (esram-out/<name>) report directory
//! sites = false           # (false) list every located site per job
//! ```

use crate::error::{SpecError, SpecErrorKind};
use crate::plan::{DiagnosisPlan, PlannedJob, ReportConfig, SchemeConfig};
use crate::toml::{self, Span, Spanned, TomlDocument, TomlTable, TomlValue};
use bisd::DiagnosisKernel;
use esram_diag::{FaultClass, FaultSimKernel};
use sram_model::MemConfig;

/// The defect-injection seed used when `[scenario] seed` is omitted —
/// the same default the [`esram_diag::Soc`] builder uses.
pub const DEFAULT_SEED: u64 = 0xDA7E_2005;

/// The most memory cells a spec may ask for: per job, and summed over
/// every job its sweep expands to, since a fleet run holds all of its
/// jobs' populations at once. Over 5 000 times the paper's case study
/// (4 × 512 × 100 cells); a larger spec is rejected at parse time
/// instead of aborting the run on a failed allocation.
pub const MAX_CELLS: u64 = 1 << 30;

/// Span used for whole-file complaints (a section that never appeared).
const FILE_SPAN: Span = Span { line: 1, col: 1 };

/// A fully validated scenario spec. Field for field, this is the spec
/// file with defaults filled in; [`ScenarioSpec::to_toml`] serialises
/// it back and [`ScenarioSpec::compile`] expands it into a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the default output directory name).
    pub name: String,
    /// Defect-injection seed.
    pub seed: u64,
    /// Memory geometry groups, in spec order.
    pub memories: Vec<MemoryGroup>,
    /// Defect model settings.
    pub defects: DefectSpec,
    /// Diagnosis scheme settings.
    pub scheme: SchemeSpec,
    /// Kernel override; `None` runs the default bit-parallel kernel and
    /// is reported as `inherit`.
    pub kernel: Option<DiagnosisKernel>,
    /// Fault-simulation kernel, recorded in the report but not applied
    /// (spec runs never simulate faults); `None` reports `inherit`.
    pub faultsim_kernel: Option<FaultSimKernel>,
    /// Sweep axes (empty = single job).
    pub sweep: SweepSpec,
    /// Report settings.
    pub report: ReportSpec,
}

/// One `[[memory]]` group: `count` memories of the same geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryGroup {
    /// How many memories share this geometry.
    pub count: usize,
    /// Words per memory.
    pub words: u64,
    /// Bits per word.
    pub width: usize,
}

impl MemoryGroup {
    /// Memory cells in the group, `count × words × width`, saturating.
    pub(crate) fn cells(&self) -> u64 {
        (self.count as u64)
            .saturating_mul(self.words)
            .saturating_mul(self.width as u64)
    }
}

/// The `[defects]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectSpec {
    /// Per-cell defect rate, within `[0, 1]`.
    pub rate: f64,
    /// Explicit fault-class mix (equal likelihood); empty = the
    /// paper's four-class baseline profile. Decoder and coupling
    /// populations mask a few percent of sites at case-study density,
    /// so specs that assert complete fault location pin a
    /// cell-array-only mix here.
    pub classes: Vec<FaultClass>,
    /// Whether data-retention faults join the defect mix (appended on
    /// top of `classes` when both are given).
    pub data_retention: bool,
    /// Spare words per memory.
    pub spares: usize,
}

impl Default for DefectSpec {
    fn default() -> Self {
        DefectSpec {
            rate: 0.0,
            classes: Vec::new(),
            data_retention: false,
            spares: 4,
        }
    }
}

/// Which diagnosis scheme a spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// The paper's proposed fast scheme (Eq. (2) cycle count).
    Fast,
    /// The Huang et al. serial baseline (Eq. (1) cycle count).
    Baseline,
}

/// Data-retention handling, shared by spec and plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrfSpec {
    /// No data-retention coverage.
    None,
    /// No-Write-Recovery Test Mode (fast scheme only).
    Nwrtm,
    /// Explicit retention pause of the given length.
    Pause(u32),
}

/// The `[scheme]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSpec {
    /// Which scheme runs.
    pub kind: SchemeKind,
    /// BIST clock period in nanoseconds.
    pub clock_ns: f64,
    /// Data-retention handling.
    pub drf: DrfSpec,
    /// Iteration cap (baseline scheme only; the fast scheme needs none).
    pub max_iterations: u64,
}

impl Default for SchemeSpec {
    fn default() -> Self {
        SchemeSpec {
            kind: SchemeKind::Fast,
            clock_ns: 10.0,
            drf: DrfSpec::Nwrtm,
            max_iterations: 4096,
        }
    }
}

/// The `[sweep]` section: empty axes mean "not swept".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSpec {
    /// Defect rates to sweep (empty = use `[defects] rate`).
    pub defect_rates: Vec<f64>,
    /// Seeds to sweep (empty = use `[scenario] seed`).
    pub seeds: Vec<u64>,
}

/// The `[report]` section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportSpec {
    /// Output directory; `None` means `esram-out/<name>` (the CLI's
    /// `--out` flag and `ESRAM_SPEC_OUT` both override it).
    pub dir: Option<String>,
    /// Whether the report lists every located site per job.
    pub sites: bool,
}

impl ScenarioSpec {
    /// Parses and validates spec source.
    ///
    /// # Errors
    ///
    /// Returns a span-bearing [`SpecError`] for the first syntax or
    /// schema violation.
    pub fn parse(source: &str) -> Result<Self, SpecError> {
        let doc = toml::parse(source)?;
        validate_layout(&doc)?;

        let scenario = section(&doc, "scenario")
            .ok_or_else(|| SpecError::new(SpecErrorKind::MissingSection("scenario"), FILE_SPAN))?;
        scenario.check_keys(&["name", "seed"])?;
        let name = as_string("name", scenario.require("name")?)?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
        {
            let span = scenario.require("name")?.span;
            return Err(SpecError::new(SpecErrorKind::InvalidName(name), span));
        }
        let seed = match scenario.get("seed") {
            Some(value) => as_u64("seed", value)?,
            None => DEFAULT_SEED,
        };

        let memories = parse_memories(&doc)?;
        let defects = parse_defects(&doc)?;
        let scheme = parse_scheme(&doc)?;
        let (kernel, faultsim_kernel) = parse_execution(&doc)?;
        let job_cells = memories.iter().map(MemoryGroup::cells).sum();
        let sweep = parse_sweep(&doc, job_cells)?;
        let report = parse_report(&doc)?;

        Ok(ScenarioSpec {
            name,
            seed,
            memories,
            defects,
            scheme,
            kernel,
            faultsim_kernel,
            sweep,
            report,
        })
    }

    /// Expands the spec into a concrete [`DiagnosisPlan`]: the sweep
    /// grid (defect rates x seeds, cartesian) becomes one
    /// [`PlannedJob`] per grid point, labelled by its swept axes.
    pub fn compile(&self) -> DiagnosisPlan {
        let rate_swept = !self.sweep.defect_rates.is_empty();
        let seed_swept = !self.sweep.seeds.is_empty();
        let rates: Vec<f64> = if rate_swept {
            self.sweep.defect_rates.clone()
        } else {
            vec![self.defects.rate]
        };
        let seeds: Vec<u64> = if seed_swept {
            self.sweep.seeds.clone()
        } else {
            vec![self.seed]
        };

        let mut jobs = Vec::with_capacity(rates.len() * seeds.len());
        for &rate in &rates {
            for &seed in &seeds {
                let mut parts = Vec::new();
                if rate_swept {
                    parts.push(format!("rate={rate}"));
                }
                if seed_swept {
                    parts.push(format!("seed={seed}"));
                }
                let label = if parts.is_empty() {
                    "base".to_string()
                } else {
                    parts.join("/")
                };
                jobs.push(PlannedJob {
                    label,
                    seed,
                    defect_rate: rate,
                    classes: self.defects.classes.clone(),
                    data_retention: self.defects.data_retention,
                    spares: self.defects.spares,
                    memories: self.memories.clone(),
                });
            }
        }

        let scheme = match self.scheme.kind {
            SchemeKind::Fast => SchemeConfig::Fast {
                clock_ns: self.scheme.clock_ns,
                drf: self.scheme.drf,
            },
            SchemeKind::Baseline => SchemeConfig::Baseline {
                clock_ns: self.scheme.clock_ns,
                retention_pause_ms: match self.scheme.drf {
                    DrfSpec::Pause(ms) => Some(ms),
                    _ => None,
                },
                max_iterations: self.scheme.max_iterations,
            },
        };

        DiagnosisPlan {
            name: self.name.clone(),
            scheme,
            kernel: self.kernel,
            faultsim_kernel: self.faultsim_kernel,
            report: ReportConfig {
                dir: self.report.dir.clone(),
                sites: self.report.sites,
            },
            jobs,
        }
    }

    /// Serialises the spec back to spec TOML. `parse(to_toml())` is the
    /// identity on validated specs (the round-trip property test).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[scenario]\n");
        out.push_str(&format!("name = {}\n", quote(&self.name)));
        out.push_str(&format!("seed = {}\n", self.seed));

        for group in &self.memories {
            out.push_str("\n[[memory]]\n");
            out.push_str(&format!("count = {}\n", group.count));
            out.push_str(&format!("words = {}\n", group.words));
            out.push_str(&format!("width = {}\n", group.width));
        }

        out.push_str("\n[defects]\n");
        out.push_str(&format!("rate = {}\n", fmt_float(self.defects.rate)));
        if !self.defects.classes.is_empty() {
            let classes: Vec<String> = self
                .defects
                .classes
                .iter()
                .map(|class| format!("\"{}\"", class.slug()))
                .collect();
            out.push_str(&format!("classes = [{}]\n", classes.join(", ")));
        }
        out.push_str(&format!("data_retention = {}\n", self.defects.data_retention));
        out.push_str(&format!("spares = {}\n", self.defects.spares));

        out.push_str("\n[scheme]\n");
        let kind = match self.scheme.kind {
            SchemeKind::Fast => "fast",
            SchemeKind::Baseline => "baseline",
        };
        out.push_str(&format!("kind = \"{kind}\"\n"));
        out.push_str(&format!("clock_ns = {}\n", fmt_float(self.scheme.clock_ns)));
        let drf = match self.scheme.drf {
            DrfSpec::None => "none",
            DrfSpec::Nwrtm => "nwrtm",
            DrfSpec::Pause(_) => "pause",
        };
        out.push_str(&format!("drf = \"{drf}\"\n"));
        if let DrfSpec::Pause(ms) = self.scheme.drf {
            out.push_str(&format!("pause_ms = {ms}\n"));
        }
        if self.scheme.kind == SchemeKind::Baseline {
            out.push_str(&format!("max_iterations = {}\n", self.scheme.max_iterations));
        }

        if self.kernel.is_some() || self.faultsim_kernel.is_some() {
            out.push_str("\n[execution]\n");
            if let Some(kernel) = self.kernel {
                out.push_str(&format!("kernel = \"{kernel}\"\n"));
            }
            if let Some(kernel) = self.faultsim_kernel {
                out.push_str(&format!("faultsim_kernel = \"{kernel}\"\n"));
            }
        }

        if !self.sweep.defect_rates.is_empty() || !self.sweep.seeds.is_empty() {
            out.push_str("\n[sweep]\n");
            if !self.sweep.defect_rates.is_empty() {
                let rates: Vec<String> = self.sweep.defect_rates.iter().map(|&r| fmt_float(r)).collect();
                out.push_str(&format!("defect_rates = [{}]\n", rates.join(", ")));
            }
            if !self.sweep.seeds.is_empty() {
                let seeds: Vec<String> = self.sweep.seeds.iter().map(|s| s.to_string()).collect();
                out.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
            }
        }

        if self.report.dir.is_some() || self.report.sites {
            out.push_str("\n[report]\n");
            if let Some(dir) = &self.report.dir {
                out.push_str(&format!("dir = {}\n", quote(dir)));
            }
            if self.report.sites {
                out.push_str("sites = true\n");
            }
        }

        out
    }
}

/// Parses and compiles in one step — the CLI's entry point.
///
/// # Errors
///
/// Returns a span-bearing [`SpecError`] for the first syntax or schema
/// violation.
pub fn compile_str(source: &str) -> Result<DiagnosisPlan, SpecError> {
    Ok(ScenarioSpec::parse(source)?.compile())
}

// ---- section parsers -----------------------------------------------

fn validate_layout(doc: &TomlDocument) -> Result<(), SpecError> {
    if let Some((key, _)) = doc.root.entries().first() {
        return Err(SpecError::new(
            SpecErrorKind::RootKey(key.value.clone()),
            key.span,
        ));
    }
    const SECTIONS: &[&str] = &["scenario", "defects", "scheme", "execution", "sweep", "report"];
    for (header, _) in &doc.tables {
        if !SECTIONS.contains(&header.value.as_str()) {
            return Err(SpecError::new(
                SpecErrorKind::UnknownSection(header.value.clone()),
                header.span,
            ));
        }
    }
    for (name, entries) in &doc.arrays {
        if name != "memory" {
            let span = entries.first().map(|(span, _)| *span).unwrap_or(FILE_SPAN);
            return Err(SpecError::new(SpecErrorKind::UnknownSection(name.clone()), span));
        }
    }
    Ok(())
}

fn parse_memories(doc: &TomlDocument) -> Result<Vec<MemoryGroup>, SpecError> {
    let groups = doc
        .array("memory")
        .ok_or_else(|| SpecError::new(SpecErrorKind::EmptyMemories, FILE_SPAN))?;
    let mut memories = Vec::with_capacity(groups.len());
    let mut cells: u64 = 0;
    for (span, table) in groups {
        let group = Section { span: *span, table };
        group.check_keys(&["count", "words", "width"])?;
        let count = match group.get("count") {
            Some(value) => {
                let count = as_u64("count", value)?;
                if count == 0 {
                    return Err(SpecError::new(
                        SpecErrorKind::OutOfRange {
                            key: "count".to_string(),
                            allowed: "an integer >= 1",
                        },
                        value.span,
                    ));
                }
                count
            }
            None => 1,
        };
        let words_value = group.require("words")?;
        let words = as_u64("words", words_value)?;
        let width_value = group.require("width")?;
        let width = as_u64("width", width_value)? as usize;
        if let Err(error) = MemConfig::new(words, width) {
            return Err(SpecError::new(
                SpecErrorKind::InvalidGeometry(error.to_string()),
                words_value.span,
            ));
        }
        let memory = MemoryGroup {
            count: count as usize,
            words,
            width,
        };
        cells = cells.saturating_add(memory.cells());
        if cells > MAX_CELLS {
            let (key, value) = group
                .get("count")
                .map_or(("words", words_value), |count| ("count", count));
            return Err(over_cell_budget(key, value.span));
        }
        memories.push(memory);
    }
    Ok(memories)
}

fn parse_defects(doc: &TomlDocument) -> Result<DefectSpec, SpecError> {
    let mut defects = DefectSpec::default();
    let Some(table) = section(doc, "defects") else {
        return Ok(defects);
    };
    table.check_keys(&["rate", "classes", "data_retention", "spares"])?;
    if let Some(value) = table.get("rate") {
        let rate = as_float("rate", value)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(SpecError::new(SpecErrorKind::InvalidDefectRate(rate), value.span));
        }
        defects.rate = rate;
    }
    if let Some(value) = table.get("classes") {
        let items = as_array("classes", value)?;
        if items.is_empty() {
            return Err(SpecError::new(SpecErrorKind::EmptyClasses, value.span));
        }
        for item in items {
            let raw = as_string("classes", item)?;
            match FaultClass::parse(&raw) {
                Some(class) => defects.classes.push(class),
                None => {
                    return Err(SpecError::new(SpecErrorKind::UnknownFaultClass(raw), item.span));
                }
            }
        }
    }
    if let Some(value) = table.get("data_retention") {
        defects.data_retention = as_bool("data_retention", value)?;
    }
    if let Some(value) = table.get("spares") {
        defects.spares = as_u64("spares", value)? as usize;
    }
    Ok(defects)
}

fn parse_scheme(doc: &TomlDocument) -> Result<SchemeSpec, SpecError> {
    let Some(table) = section(doc, "scheme") else {
        return Ok(SchemeSpec::default());
    };
    table.check_keys(&["kind", "clock_ns", "drf", "pause_ms", "max_iterations"])?;

    let kind = match table.get("kind") {
        Some(value) => match as_string("kind", value)?.as_str() {
            "fast" => SchemeKind::Fast,
            "baseline" => SchemeKind::Baseline,
            other => {
                return Err(SpecError::new(
                    SpecErrorKind::UnknownScheme(other.to_string()),
                    value.span,
                ));
            }
        },
        None => SchemeKind::Fast,
    };

    let clock_ns = match table.get("clock_ns") {
        Some(value) => {
            let clock = as_float("clock_ns", value)?;
            if !(clock.is_finite() && clock > 0.0) {
                return Err(SpecError::new(SpecErrorKind::InvalidClock(clock), value.span));
            }
            clock
        }
        None => 10.0,
    };

    let pause_ms = match table.get("pause_ms") {
        Some(value) => {
            let pause = as_u64("pause_ms", value)?;
            if pause > u64::from(u32::MAX) {
                return Err(SpecError::new(
                    SpecErrorKind::OutOfRange {
                        key: "pause_ms".to_string(),
                        allowed: "an integer that fits in 32 bits",
                    },
                    value.span,
                ));
            }
            Some((pause as u32, value.span))
        }
        None => None,
    };

    let drf = match table.get("drf") {
        Some(value) => {
            let mode = as_string("drf", value)?;
            match mode.as_str() {
                "none" => DrfSpec::None,
                "nwrtm" if kind == SchemeKind::Fast => DrfSpec::Nwrtm,
                "nwrtm" => {
                    return Err(SpecError::new(
                        SpecErrorKind::InapplicableKey {
                            key: "drf".to_string(),
                            context: "NWRTM is the fast scheme's test mode; the baseline \
                                      supports 'none' or 'pause'"
                                .to_string(),
                        },
                        value.span,
                    ));
                }
                "pause" => match pause_ms {
                    Some((ms, _)) => DrfSpec::Pause(ms),
                    None => return Err(SpecError::new(SpecErrorKind::MissingPause, value.span)),
                },
                other => {
                    return Err(SpecError::new(
                        SpecErrorKind::UnknownDrf(other.to_string()),
                        value.span,
                    ));
                }
            }
        }
        None => match (kind, pause_ms) {
            (_, Some((ms, _))) => DrfSpec::Pause(ms),
            (SchemeKind::Fast, None) => DrfSpec::Nwrtm,
            (SchemeKind::Baseline, None) => DrfSpec::None,
        },
    };
    if let (Some((_, span)), false) = (pause_ms, matches!(drf, DrfSpec::Pause(_))) {
        return Err(SpecError::new(
            SpecErrorKind::InapplicableKey {
                key: "pause_ms".to_string(),
                context: "it requires drf = \"pause\"".to_string(),
            },
            span,
        ));
    }

    let max_iterations = match table.get("max_iterations") {
        Some(value) => {
            if kind == SchemeKind::Fast {
                return Err(SpecError::new(
                    SpecErrorKind::InapplicableKey {
                        key: "max_iterations".to_string(),
                        context: "the fast scheme needs no iteration cap".to_string(),
                    },
                    value.span,
                ));
            }
            let cap = as_u64("max_iterations", value)?;
            if cap == 0 {
                return Err(SpecError::new(
                    SpecErrorKind::OutOfRange {
                        key: "max_iterations".to_string(),
                        allowed: "an integer >= 1",
                    },
                    value.span,
                ));
            }
            cap
        }
        None => 4096,
    };

    Ok(SchemeSpec {
        kind,
        clock_ns,
        drf,
        max_iterations,
    })
}

type ExecutionKnobs = (Option<DiagnosisKernel>, Option<FaultSimKernel>);

fn parse_execution(doc: &TomlDocument) -> Result<ExecutionKnobs, SpecError> {
    let Some(table) = section(doc, "execution") else {
        return Ok((None, None));
    };
    table.check_keys(&["kernel", "faultsim_kernel"])?;
    let kernel = match table.get("kernel") {
        Some(value) => {
            let raw = as_string("kernel", value)?;
            match DiagnosisKernel::parse(&raw) {
                Some(kernel) => Some(kernel),
                None => return Err(SpecError::new(SpecErrorKind::UnknownKernel(raw), value.span)),
            }
        }
        None => None,
    };
    let faultsim_kernel = match table.get("faultsim_kernel") {
        Some(value) => {
            let raw = as_string("faultsim_kernel", value)?;
            match FaultSimKernel::parse(&raw) {
                Some(kernel) => Some(kernel),
                None => {
                    return Err(SpecError::new(
                        SpecErrorKind::UnknownFaultSimKernel(raw),
                        value.span,
                    ))
                }
            }
        }
        None => None,
    };
    Ok((kernel, faultsim_kernel))
}

/// Parses `[sweep]` and checks that its jobs, `job_cells` memory cells
/// each, stay within [`MAX_CELLS`].
fn parse_sweep(doc: &TomlDocument, job_cells: u64) -> Result<SweepSpec, SpecError> {
    let mut sweep = SweepSpec::default();
    let Some(table) = section(doc, "sweep") else {
        return Ok(sweep);
    };
    table.check_keys(&["defect_rates", "seeds"])?;
    if let Some(value) = table.get("defect_rates") {
        let items = as_array("defect_rates", value)?;
        if items.is_empty() {
            return Err(SpecError::new(
                SpecErrorKind::EmptySweep("defect_rates"),
                value.span,
            ));
        }
        for item in items {
            let rate = as_float("defect_rates", item)?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(SpecError::new(SpecErrorKind::InvalidDefectRate(rate), item.span));
            }
            sweep.defect_rates.push(rate);
        }
    }
    if let Some(value) = table.get("seeds") {
        let items = as_array("seeds", value)?;
        if items.is_empty() {
            return Err(SpecError::new(SpecErrorKind::EmptySweep("seeds"), value.span));
        }
        for item in items {
            sweep.seeds.push(as_u64("seeds", item)?);
        }
    }
    let jobs = (sweep.defect_rates.len().max(1) as u64).saturating_mul(sweep.seeds.len().max(1) as u64);
    if jobs.saturating_mul(job_cells) > MAX_CELLS {
        // More than one job, so at least one axis is present.
        let key = if sweep.seeds.is_empty() {
            "defect_rates"
        } else {
            "seeds"
        };
        return Err(over_cell_budget(key, table.require(key)?.span));
    }
    Ok(sweep)
}

/// The rejection of a spec asking for more than [`MAX_CELLS`] cells,
/// at the key that pushed it over.
fn over_cell_budget(key: &str, span: Span) -> SpecError {
    SpecError::new(
        SpecErrorKind::OutOfRange {
            key: key.to_string(),
            allowed: "at most MAX_CELLS = 2^30 memory cells over all groups and sweep jobs",
        },
        span,
    )
}

fn parse_report(doc: &TomlDocument) -> Result<ReportSpec, SpecError> {
    let mut report = ReportSpec::default();
    let Some(table) = section(doc, "report") else {
        return Ok(report);
    };
    table.check_keys(&["dir", "sites"])?;
    if let Some(value) = table.get("dir") {
        let dir = as_string("dir", value)?;
        if dir.is_empty() {
            return Err(SpecError::new(SpecErrorKind::InvalidName(dir), value.span));
        }
        report.dir = Some(dir);
    }
    if let Some(value) = table.get("sites") {
        report.sites = as_bool("sites", value)?;
    }
    Ok(report)
}

// ---- extraction helpers --------------------------------------------

struct Section<'a> {
    span: Span,
    table: &'a TomlTable,
}

fn section<'a>(doc: &'a TomlDocument, name: &str) -> Option<Section<'a>> {
    doc.tables
        .iter()
        .find(|(header, _)| header.value == name)
        .map(|(header, table)| Section {
            span: header.span,
            table,
        })
}

impl<'a> Section<'a> {
    fn check_keys(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.table.entries() {
            if !allowed.contains(&key.value.as_str()) {
                return Err(SpecError::new(
                    SpecErrorKind::UnknownKey(key.value.clone()),
                    key.span,
                ));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&'a Spanned<TomlValue>> {
        self.table.get(key)
    }

    fn require(&self, key: &'static str) -> Result<&'a Spanned<TomlValue>, SpecError> {
        self.get(key)
            .ok_or_else(|| SpecError::new(SpecErrorKind::MissingKey(key), self.span))
    }
}

fn wrong_type(key: &str, expected: &'static str, value: &Spanned<TomlValue>) -> SpecError {
    SpecError::new(
        SpecErrorKind::WrongType {
            key: key.to_string(),
            expected,
            found: value.value.type_name(),
        },
        value.span,
    )
}

fn as_string(key: &str, value: &Spanned<TomlValue>) -> Result<String, SpecError> {
    match &value.value {
        TomlValue::String(s) => Ok(s.clone()),
        _ => Err(wrong_type(key, "string", value)),
    }
}

fn as_bool(key: &str, value: &Spanned<TomlValue>) -> Result<bool, SpecError> {
    match value.value {
        TomlValue::Bool(b) => Ok(b),
        _ => Err(wrong_type(key, "boolean", value)),
    }
}

fn as_u64(key: &str, value: &Spanned<TomlValue>) -> Result<u64, SpecError> {
    match value.value {
        TomlValue::Integer(i) if i >= 0 => Ok(i as u64),
        TomlValue::Integer(_) => Err(SpecError::new(
            SpecErrorKind::OutOfRange {
                key: key.to_string(),
                allowed: "a non-negative integer",
            },
            value.span,
        )),
        _ => Err(wrong_type(key, "integer", value)),
    }
}

/// Floats accept integer literals too (`rate = 1` means `1.0`).
fn as_float(key: &str, value: &Spanned<TomlValue>) -> Result<f64, SpecError> {
    match value.value {
        TomlValue::Float(f) => Ok(f),
        TomlValue::Integer(i) => Ok(i as f64),
        _ => Err(wrong_type(key, "float", value)),
    }
}

fn as_array<'v>(key: &str, value: &'v Spanned<TomlValue>) -> Result<&'v [Spanned<TomlValue>], SpecError> {
    match &value.value {
        TomlValue::Array(items) => Ok(items),
        _ => Err(wrong_type(key, "array", value)),
    }
}

/// Shortest float representation that still re-parses as a float
/// (integral values keep a trailing `.0`).
fn fmt_float(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

fn quote(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "[scenario]\nname = \"mini\"\n\n[[memory]]\nwords = 64\nwidth = 8\n";

    #[test]
    fn minimal_spec_fills_every_default() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(
            spec.memories,
            vec![MemoryGroup {
                count: 1,
                words: 64,
                width: 8
            }]
        );
        assert_eq!(spec.defects, DefectSpec::default());
        assert_eq!(spec.scheme, SchemeSpec::default());
        assert_eq!(spec.kernel, None);
        assert_eq!(spec.faultsim_kernel, None);
        assert_eq!(spec.sweep, SweepSpec::default());
        assert_eq!(spec.report, ReportSpec::default());
    }

    #[test]
    fn minimal_spec_compiles_to_one_base_job() {
        let plan = compile_str(MINIMAL).unwrap();
        assert_eq!(plan.jobs.len(), 1);
        assert_eq!(plan.jobs[0].label, "base");
        assert_eq!(plan.jobs[0].seed, DEFAULT_SEED);
        assert_eq!(plan.jobs[0].defect_rate, 0.0);
        assert!(matches!(plan.scheme, SchemeConfig::Fast { .. }));
    }

    #[test]
    fn sweep_grid_is_cartesian_in_rate_major_order() {
        let source = concat!(
            "[scenario]\nname = \"sweep\"\n",
            "[[memory]]\nwords = 64\nwidth = 8\n",
            "[sweep]\ndefect_rates = [0.001, 0.01]\nseeds = [1, 2]\n",
        );
        let plan = compile_str(source).unwrap();
        let labels: Vec<&str> = plan.jobs.iter().map(|job| job.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "rate=0.001/seed=1",
                "rate=0.001/seed=2",
                "rate=0.01/seed=1",
                "rate=0.01/seed=2",
            ]
        );
    }

    #[test]
    fn baseline_defaults_differ_from_fast() {
        let source = concat!(
            "[scenario]\nname = \"b\"\n",
            "[[memory]]\nwords = 64\nwidth = 8\n",
            "[scheme]\nkind = \"baseline\"\n",
        );
        let spec = ScenarioSpec::parse(source).unwrap();
        assert_eq!(spec.scheme.kind, SchemeKind::Baseline);
        assert_eq!(spec.scheme.drf, DrfSpec::None);
        assert_eq!(spec.scheme.max_iterations, 4096);
        let plan = spec.compile();
        assert_eq!(
            plan.scheme,
            SchemeConfig::Baseline {
                clock_ns: 10.0,
                retention_pause_ms: None,
                max_iterations: 4096
            }
        );
    }

    #[test]
    fn to_toml_round_trips_a_fully_loaded_spec() {
        let source = concat!(
            "[scenario]\nname = \"full\"\nseed = 7\n",
            "[[memory]]\ncount = 3\nwords = 512\nwidth = 100\n",
            "[[memory]]\nwords = 64\nwidth = 16\n",
            "[defects]\nrate = 0.02\ndata_retention = true\nspares = 6\n",
            "[scheme]\nkind = \"fast\"\nclock_ns = 5.0\ndrf = \"pause\"\npause_ms = 100\n",
            "[execution]\nkernel = \"per-memory\"\nfaultsim_kernel = \"permem\"\n",
            "[sweep]\ndefect_rates = [0.001, 1.0]\nseeds = [1, 2]\n",
            "[report]\ndir = \"out/full\"\nsites = true\n",
        );
        let spec = ScenarioSpec::parse(source).unwrap();
        let reparsed = ScenarioSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.compile(), reparsed.compile());
    }

    #[test]
    fn faultsim_kernel_parses_compiles_and_round_trips_alone() {
        // `[execution]` with only the fault-sim pin: the section must
        // still be emitted (and survive a round trip) when the
        // diagnosis kernel stays inherited.
        let source = concat!(
            "[scenario]\nname = \"fs\"\n",
            "[[memory]]\nwords = 64\nwidth = 8\n",
            "[execution]\nfaultsim_kernel = \"lanes\"\n",
        );
        let spec = ScenarioSpec::parse(source).unwrap();
        assert_eq!(spec.kernel, None);
        assert_eq!(spec.faultsim_kernel, Some(FaultSimKernel::Lanes));
        assert_eq!(spec.compile().faultsim_kernel, Some(FaultSimKernel::Lanes));
        let reparsed = ScenarioSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, reparsed);
        // The env-knob aliases parse here too.
        let aliased = source.replace("\"lanes\"", "\"per-memory\"");
        let spec = ScenarioSpec::parse(&aliased).unwrap();
        assert_eq!(spec.faultsim_kernel, Some(FaultSimKernel::PerMemory));
    }
}
