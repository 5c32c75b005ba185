//! Plan execution and machine-readable reports.
//!
//! [`execute_plan`] runs every job of a [`DiagnosisPlan`] and folds the
//! outcomes into one JSON report. Fast-scheme jobs batch into a single
//! [`FleetRunner`] run — a sweep is a fleet, so it inherits the
//! executor's cost-balanced partition and the per-job fault domains
//! (one failed grid point reports `"status": "failed"` without taking
//! the sweep down). Baseline jobs run one population at a time, since
//! the Huang scheme shards inside each global iteration instead.
//!
//! The report is **deterministic by construction**: every field is a
//! pure function of the spec — verdicts, Eq. (1)/(2) cycle tables,
//! scores, simulated diagnosis times (cycle counts times the spec's
//! clock, not wall-clock). Nothing in it depends on worker count,
//! kernel choice or machine speed, which is what lets CI `cmp` reports
//! across worker counts.

use crate::json::Json;
use crate::plan::{DiagnosisPlan, PlannedJob, SchemeConfig};
use crate::spec::DrfSpec;
use bisd::{DiagnosisResult, DrfMode, FastScheme, HuangScheme, LocatedSites};
use esram_diag::{AnalyticModel, DiagnosisScore, FleetJob, FleetRunner, ShardPlan, Soc, SocBuilder};

/// Version tag stamped into every report.
pub const REPORT_FORMAT: &str = "esram-report/1";

/// The outcome of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The deterministic report document.
    pub report: Json,
    /// Number of jobs the plan expanded to.
    pub jobs: usize,
    /// Number of jobs that failed (fault-domain contained).
    pub failed: usize,
    /// Whether every healthy job located every injected fault.
    pub all_faults_located: bool,
}

/// Executes every job of a plan and builds the report.
///
/// # Errors
///
/// Returns a message for whole-run failures (cancellation, deadline, or
/// a geometry the builder rejects — the latter cannot happen for plans
/// produced by spec validation). Per-job failures do **not** error:
/// they land in the report as `"status": "failed"` rows.
pub fn execute_plan(plan: &DiagnosisPlan, shard: &ShardPlan) -> Result<RunReport, String> {
    let rows = match &plan.scheme {
        SchemeConfig::Fast { clock_ns, drf } => run_fast(plan, shard, *clock_ns, *drf)?,
        SchemeConfig::Baseline {
            clock_ns,
            retention_pause_ms,
            max_iterations,
        } => run_baseline(plan, shard, *clock_ns, *retention_pause_ms, *max_iterations),
    };

    let jobs = rows.len();
    let failed = rows.iter().filter(|row| !row.ok()).count();
    let all_faults_located = rows
        .iter()
        .all(|row| !row.ok() || row.all_faults_located.unwrap_or(false));

    let report = Json::object(vec![
        ("format", Json::Str(REPORT_FORMAT.to_string())),
        ("scenario", Json::Str(plan.name.clone())),
        ("scheme", scheme_json(plan)),
        (
            "summary",
            Json::object(vec![
                ("jobs", Json::Int(jobs as i128)),
                ("failed", Json::Int(failed as i128)),
                ("all_faults_located", Json::Bool(all_faults_located)),
            ]),
        ),
        (
            "jobs",
            Json::Array(rows.into_iter().map(|row| row.json).collect()),
        ),
    ]);

    Ok(RunReport {
        report,
        jobs,
        failed,
        all_faults_located,
    })
}

/// Renders a human-readable summary of a report document (the `esram
/// report` subcommand).
///
/// # Errors
///
/// Returns a message if the document is not an `esram-report/1` report.
pub fn summarize(report: &Json) -> Result<String, String> {
    let format = report
        .get("format")
        .and_then(Json::as_str)
        .ok_or("not an esram report (missing 'format')")?;
    if format != REPORT_FORMAT {
        return Err(format!("unsupported report format '{format}'"));
    }
    let scenario = report.get("scenario").and_then(Json::as_str).unwrap_or("?");
    let scheme = report
        .get("scheme")
        .and_then(|s| s.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    let jobs = report
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or("not an esram report (missing 'jobs')")?;

    let mut out = String::new();
    out.push_str(&format!("scenario: {scenario} ({scheme} scheme)\n"));
    out.push_str(&format!(
        "{:<24} {:>12} {:>10} {:>12} {:>10} {:>8}\n",
        "job", "cycles", "faults", "located", "coverage", "status"
    ));
    for job in jobs {
        let label = job.get("label").and_then(Json::as_str).unwrap_or("?");
        if job.get("status").and_then(Json::as_str) == Some("failed") {
            let error = job.get("error").and_then(Json::as_str).unwrap_or("unknown");
            out.push_str(&format!(
                "{:<24} {:>12} {:>10} {:>12} {:>10} {:>8}  {}\n",
                label, "-", "-", "-", "-", "failed", error
            ));
            continue;
        }
        let int = |key: &str| job.get(key).and_then(Json::as_int).unwrap_or(0);
        let coverage = match job.get("location_coverage") {
            Some(Json::Float(f)) => format!("{:.1}%", f * 100.0),
            _ => "?".to_string(),
        };
        out.push_str(&format!(
            "{:<24} {:>12} {:>10} {:>12} {:>10} {:>8}\n",
            label,
            int("cycles"),
            int("injected"),
            int("located_injected"),
            coverage,
            "ok"
        ));
    }
    if let Some(summary) = report.get("summary") {
        let total = summary.get("jobs").and_then(Json::as_int).unwrap_or(0);
        let failed = summary.get("failed").and_then(Json::as_int).unwrap_or(0);
        let located = summary
            .get("all_faults_located")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        out.push_str(&format!(
            "{total} job(s), {failed} failed, all faults located: {located}\n"
        ));
    }
    Ok(out)
}

// ---- execution -----------------------------------------------------

struct Row {
    json: Json,
    all_faults_located: Option<bool>,
}

impl Row {
    fn ok(&self) -> bool {
        self.all_faults_located.is_some()
    }
}

fn run_fast(
    plan: &DiagnosisPlan,
    shard: &ShardPlan,
    clock_ns: f64,
    drf: DrfSpec,
) -> Result<Vec<Row>, String> {
    let mut scheme = FastScheme::new(clock_ns).with_drf_mode(match drf {
        DrfSpec::None => DrfMode::None,
        DrfSpec::Nwrtm => DrfMode::Nwrtm,
        DrfSpec::Pause(ms) => DrfMode::RetentionPause(ms),
    });
    if let Some(kernel) = plan.kernel {
        scheme = scheme.with_kernel(kernel);
    }

    let mut fleet = Vec::with_capacity(plan.jobs.len());
    for job in &plan.jobs {
        let builder = builder_for(job)?;
        fleet.push(FleetJob::new(builder, scheme));
    }

    let outcomes = FleetRunner::new(*shard)
        .run(&fleet)
        .map_err(|error| format!("fleet run failed: {error}"))?;

    Ok(plan
        .jobs
        .iter()
        .zip(outcomes)
        .map(|(job, outcome)| match outcome {
            Ok(outcome) => {
                let (soc, result) = outcome.into_parts();
                healthy_row(plan, job, &soc, &result, exactness(plan, &result))
            }
            Err(error) => failed_row(job, &error.to_string()),
        })
        .collect())
}

fn run_baseline(
    plan: &DiagnosisPlan,
    shard: &ShardPlan,
    clock_ns: f64,
    retention_pause_ms: Option<u32>,
    max_iterations: u64,
) -> Vec<Row> {
    let mut scheme = HuangScheme::new(clock_ns).with_max_iterations(max_iterations);
    if let Some(pause) = retention_pause_ms {
        scheme = scheme.with_retention_pause(pause);
    }
    if let Some(kernel) = plan.kernel {
        scheme = scheme.with_kernel(kernel);
    }

    plan.jobs
        .iter()
        .map(|job| {
            let soc = match builder_for(job)
                .and_then(|builder| builder.build_with(*shard).map_err(|error| error.to_string()))
            {
                Ok(soc) => soc,
                Err(error) => return failed_row(job, &error),
            };
            let mut soc = soc;
            match scheme.diagnose_with(*shard, soc.memories_mut()) {
                Ok(result) => {
                    let exact = exactness(plan, &result);
                    healthy_row(plan, job, &soc, &result, exact)
                }
                Err(error) => failed_row(job, &error.to_string()),
            }
        })
        .collect()
}

fn builder_for(job: &PlannedJob) -> Result<SocBuilder, String> {
    let mut builder = Soc::builder();
    for group in &job.memories {
        builder = builder
            .memories(group.count, group.words, group.width)
            .map_err(|error| format!("invalid geometry in job '{}': {error}", job.label))?;
    }
    let mut builder = builder
        .defect_rate(job.defect_rate)
        .seed(job.seed)
        .spares(job.spares);
    if !job.classes.is_empty() {
        builder = builder.fault_classes(&job.classes);
    }
    if job.data_retention {
        builder = builder.with_data_retention_defects();
    }
    Ok(builder)
}

/// Whether the simulated cycle count has an exact closed form to check
/// against: Eq. (2) for the fast scheme without DRF work, Eq. (1) at
/// the observed iteration count for the baseline without a retention
/// pause. The NWRTM merge is behavioural (its surcharge exceeds the
/// paper's 2n + 2c accounting), so those rows report `null`.
fn exactness(plan: &DiagnosisPlan, result: &DiagnosisResult) -> Option<u64> {
    let model = population_model(plan);
    match &plan.scheme {
        SchemeConfig::Fast {
            drf: DrfSpec::None, ..
        } => Some(model.proposed_cycles()),
        SchemeConfig::Fast { .. } => None,
        SchemeConfig::Baseline {
            retention_pause_ms: None,
            ..
        } => Some(model.baseline_cycles(result.iterations)),
        SchemeConfig::Baseline { .. } => None,
    }
}

/// The analytic model of the population: Eq. (1)/(2) are governed by
/// the largest (most words) and widest memory.
fn population_model(plan: &DiagnosisPlan) -> AnalyticModel {
    let mut words = 1u64;
    let mut width = 1u64;
    if let Some(job) = plan.jobs.first() {
        for group in &job.memories {
            words = words.max(group.words);
            width = width.max(group.width as u64);
        }
    }
    AnalyticModel::new(words, width, plan.scheme.clock_ns())
}

fn healthy_row(
    plan: &DiagnosisPlan,
    job: &PlannedJob,
    soc: &Soc,
    result: &DiagnosisResult,
    expected_cycles: Option<u64>,
) -> Row {
    let located = result.located_sites();
    let score = DiagnosisScore::evaluate_sites(soc.memories(), &located);
    let model = population_model(plan);
    let faults = model.max_faults_for_defect_rate(job.defect_rate);
    let eq1_k = AnalyticModel::iterations_for_faults(faults);
    let eq1_cycles = model.baseline_cycles(eq1_k);
    let eq2_cycles = model.proposed_cycles();
    let all_located = score.located() == score.injected();

    let mut fields = vec![
        ("label", Json::Str(job.label.clone())),
        ("status", Json::Str("ok".to_string())),
        ("seed", Json::Int(job.seed as i128)),
        ("defect_rate", Json::Float(job.defect_rate)),
        ("classes", classes_json(job)),
        ("memories", Json::Int(job.memory_count() as i128)),
        ("cells", Json::Int(soc.total_cells() as i128)),
        ("injected", Json::Int(score.injected() as i128)),
        ("located_injected", Json::Int(score.located() as i128)),
        ("additional_sites", Json::Int(score.additional_sites as i128)),
        ("located_sites", Json::Int(located.len() as i128)),
        ("location_coverage", Json::Float(score.location_coverage())),
        ("all_faults_located", Json::Bool(all_located)),
        ("cycles", Json::Int(result.cycles as i128)),
        ("iterations", Json::Int(result.iterations as i128)),
        ("pause_ms", Json::Float(result.pause_ms)),
        ("diagnosis_ms", Json::Float(result.time_ms())),
        ("eq1_k", Json::Int(eq1_k as i128)),
        ("eq1_cycles", Json::Int(eq1_cycles as i128)),
        ("eq2_cycles", Json::Int(eq2_cycles as i128)),
        (
            "analytic_exact",
            match expected_cycles {
                Some(expected) => Json::Bool(result.cycles == expected),
                None => Json::Null,
            },
        ),
        (
            "modeled_reduction",
            if result.cycles > 0 {
                Json::Float(eq1_cycles as f64 / result.cycles as f64)
            } else {
                Json::Null
            },
        ),
    ];
    if plan.report.sites {
        fields.push(("sites", sites_json(&located)));
    }
    Row {
        json: Json::object(fields),
        all_faults_located: Some(all_located),
    }
}

fn failed_row(job: &PlannedJob, error: &str) -> Row {
    Row {
        json: Json::object(vec![
            ("label", Json::Str(job.label.clone())),
            ("status", Json::Str("failed".to_string())),
            ("seed", Json::Int(job.seed as i128)),
            ("defect_rate", Json::Float(job.defect_rate)),
            ("error", Json::Str(error.to_string())),
        ]),
        all_faults_located: None,
    }
}

/// The job's fault-class mix as report slugs; an empty array means the
/// paper's four-class baseline profile (plus DRFs when enabled).
fn classes_json(job: &PlannedJob) -> Json {
    Json::Array(
        job.classes
            .iter()
            .map(|class| Json::Str(class.slug().to_string()))
            .collect(),
    )
}

fn sites_json(located: &LocatedSites) -> Json {
    Json::Array(
        located
            .all()
            .iter()
            .map(|site| {
                Json::object(vec![
                    ("memory", Json::Int(site.memory.index() as i128)),
                    ("address", Json::Int(site.address.index() as i128)),
                    ("bit", Json::Int(site.bit as i128)),
                ])
            })
            .collect(),
    )
}

fn scheme_json(plan: &DiagnosisPlan) -> Json {
    // An unset kernel runs the default but is still spelled `inherit`:
    // the committed goldens and the benchmark read these bytes.
    let kernel = match plan.kernel {
        Some(kernel) => Json::Str(kernel.to_string()),
        None => Json::Str("inherit".to_string()),
    };
    let faultsim_kernel = match plan.faultsim_kernel {
        Some(kernel) => Json::Str(kernel.to_string()),
        None => Json::Str("inherit".to_string()),
    };
    match &plan.scheme {
        SchemeConfig::Fast { clock_ns, drf } => {
            let mut fields = vec![
                ("kind", Json::Str("fast".to_string())),
                ("clock_ns", Json::Float(*clock_ns)),
                (
                    "drf",
                    Json::Str(
                        match drf {
                            DrfSpec::None => "none",
                            DrfSpec::Nwrtm => "nwrtm",
                            DrfSpec::Pause(_) => "pause",
                        }
                        .to_string(),
                    ),
                ),
            ];
            if let DrfSpec::Pause(ms) = drf {
                fields.push(("pause_ms", Json::Int(*ms as i128)));
            }
            fields.push(("kernel", kernel));
            fields.push(("faultsim_kernel", faultsim_kernel));
            Json::object(fields)
        }
        SchemeConfig::Baseline {
            clock_ns,
            retention_pause_ms,
            max_iterations,
        } => {
            let mut fields = vec![
                ("kind", Json::Str("baseline".to_string())),
                ("clock_ns", Json::Float(*clock_ns)),
            ];
            if let Some(ms) = retention_pause_ms {
                fields.push(("retention_pause_ms", Json::Int(*ms as i128)));
            }
            fields.push(("max_iterations", Json::Int(*max_iterations as i128)));
            fields.push(("kernel", kernel));
            fields.push(("faultsim_kernel", faultsim_kernel));
            Json::object(fields)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::compile_str;

    const SMALL: &str = concat!(
        "[scenario]\nname = \"small\"\nseed = 42\n",
        "[[memory]]\ncount = 2\nwords = 64\nwidth = 8\n",
        "[defects]\nrate = 0.01\n",
        "[scheme]\ndrf = \"none\"\n",
    );

    #[test]
    fn fast_report_matches_eq2_and_locates_everything() {
        let plan = compile_str(SMALL).unwrap();
        let run = execute_plan(&plan, &ShardPlan::sequential()).unwrap();
        assert_eq!(run.jobs, 1);
        assert_eq!(run.failed, 0);
        assert!(run.all_faults_located);
        let job = &run.report.get("jobs").unwrap().as_array().unwrap()[0];
        assert_eq!(job.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(job.get("analytic_exact").and_then(Json::as_bool), Some(true));
        let model = AnalyticModel::new(64, 8, 10.0);
        assert_eq!(
            job.get("cycles").and_then(Json::as_int),
            Some(model.proposed_cycles() as i128)
        );
        assert!(job.get("injected").and_then(Json::as_int).unwrap() > 0);
    }

    #[test]
    fn reports_are_byte_identical_across_shard_plans() {
        let plan = compile_str(SMALL).unwrap();
        let sequential = execute_plan(&plan, &ShardPlan::sequential()).unwrap();
        let parallel = execute_plan(&plan, &ShardPlan::with_threads(8)).unwrap();
        assert_eq!(sequential.report.render(), parallel.report.render());
    }

    #[test]
    fn baseline_report_matches_eq1_at_the_observed_iteration_count() {
        let source = concat!(
            "[scenario]\nname = \"base\"\nseed = 7\n",
            "[[memory]]\nwords = 32\nwidth = 8\n",
            "[defects]\nrate = 0.01\n",
            "[scheme]\nkind = \"baseline\"\n",
        );
        let plan = compile_str(source).unwrap();
        let run = execute_plan(&plan, &ShardPlan::sequential()).unwrap();
        let job = &run.report.get("jobs").unwrap().as_array().unwrap()[0];
        assert_eq!(job.get("analytic_exact").and_then(Json::as_bool), Some(true));
        let iterations = job.get("iterations").and_then(Json::as_int).unwrap() as u64;
        let cycles = job.get("cycles").and_then(Json::as_int).unwrap() as u64;
        assert_eq!(cycles, (17 * iterations + 9) * 32 * 8);
    }

    #[test]
    fn sweep_reports_one_row_per_grid_point_and_summarizes() {
        let source = concat!(
            "[scenario]\nname = \"sweep\"\n",
            "[[memory]]\nwords = 32\nwidth = 8\n",
            "[scheme]\ndrf = \"none\"\n",
            "[sweep]\ndefect_rates = [0.0, 0.01]\nseeds = [1, 2]\n",
        );
        let plan = compile_str(source).unwrap();
        let run = execute_plan(&plan, &ShardPlan::sequential()).unwrap();
        assert_eq!(run.jobs, 4);
        let text = summarize(&run.report).unwrap();
        assert!(text.contains("rate=0.01/seed=2"));
        assert!(text.contains("4 job(s), 0 failed"));
    }

    #[test]
    fn sites_flag_lists_located_sites() {
        let source = concat!(
            "[scenario]\nname = \"sites\"\nseed = 42\n",
            "[[memory]]\nwords = 64\nwidth = 8\n",
            "[defects]\nrate = 0.01\n",
            "[scheme]\ndrf = \"none\"\n",
            "[report]\nsites = true\n",
        );
        let plan = compile_str(source).unwrap();
        let run = execute_plan(&plan, &ShardPlan::sequential()).unwrap();
        let job = &run.report.get("jobs").unwrap().as_array().unwrap()[0];
        let sites = job.get("sites").and_then(Json::as_array).unwrap();
        assert_eq!(
            sites.len() as i128,
            job.get("located_sites").and_then(Json::as_int).unwrap()
        );
        assert!(sites[0].get("memory").is_some());
    }

    #[test]
    fn summarize_rejects_non_reports() {
        assert!(summarize(&Json::parse("{}").unwrap()).is_err());
        assert!(summarize(&Json::parse("{\"format\": \"other/9\"}").unwrap()).is_err());
    }
}
