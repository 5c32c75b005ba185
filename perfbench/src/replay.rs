//! `execute_plan`'s diagnosis work replayed as separate public calls,
//! one span per layer.
//!
//! The fast scheme runs as `FleetRunner::{plan, build, diagnose}` and the
//! baseline as `SocBuilder::build_with` then `HuangScheme::diagnose_with`;
//! every job is scored with `Soc::score`. For the baseline these are the
//! calls `execute_plan` makes. For the fast scheme they are not:
//! `execute_plan` calls `FleetRunner::run`, which runs the same three
//! phases inside per-job isolation (contained panics, failpoints, a
//! cancellation token). The phase spans therefore time the non-isolated
//! phase methods; the traced op also times `FleetRunner::run` itself
//! (`fleet.run`), so the cost of the isolation layer is measured rather
//! than assumed.

use crate::trace::Tracer;
use bisd::{DiagnosisKernel, DiagnosisResult, DrfMode, FastScheme, HuangScheme};
use esram_diag::{DiagnosisScore, FleetJob, FleetRunner, ShardPlan, Soc, SocBuilder};
use esram_spec::{DiagnosisPlan, DrfSpec, PlannedJob, SchemeConfig};

/// One job's diagnosis result and its score against the injected
/// ground truth.
pub type Verdict = (DiagnosisResult, DiagnosisScore);

/// Replays a plan layer by layer and returns one verdict per job.
pub fn replay(plan: &DiagnosisPlan, shard: ShardPlan, tracer: &mut Tracer) -> Result<Vec<Verdict>, String> {
    match &plan.scheme {
        SchemeConfig::Fast { clock_ns, drf } => {
            let jobs = fleet_jobs(plan, *clock_ns, *drf)?;
            let runner = FleetRunner::new(shard);
            let fleet_plan = tracer
                .span("fleet.plan", |_| runner.plan(&jobs))
                .map_err(|e| e.to_string())?;
            let mut socs = tracer
                .span("soc.build", |_| runner.build(&fleet_plan))
                .map_err(|e| e.to_string())?;
            let results = tracer
                .span("bisd.fast.diagnose", |_| runner.diagnose(&fleet_plan, &mut socs))
                .map_err(|e| e.to_string())?;
            count_fast_work(&socs, &results, tracer);
            Ok(socs
                .iter()
                .zip(results)
                .map(|(soc, result)| score(soc, result, tracer))
                .collect())
        }
        SchemeConfig::Baseline { .. } => {
            let scheme = huang_scheme(plan);
            let mut verdicts = Vec::with_capacity(plan.jobs.len());
            let mut iterations = 0;
            for job in &plan.jobs {
                let builder = builder_for(job)?;
                let mut soc = tracer
                    .span("soc.build", |_| builder.build_with(shard))
                    .map_err(|e| e.to_string())?;
                let result = tracer
                    .span("bisd.huang.diagnose", |_| {
                        scheme.diagnose_with(shard, soc.memories_mut())
                    })
                    .map_err(|e| e.to_string())?;
                iterations += result.iterations;
                verdicts.push(score(&soc, result, tracer));
            }
            tracer.count("bisd.huang.iterations", iterations as f64);
            Ok(verdicts)
        }
    }
}

/// The verdicts of `execute_plan`'s own path: one `FleetRunner::run`
/// for the fast scheme, the baseline's per-job calls otherwise.
pub fn production_verdicts(plan: &DiagnosisPlan, shard: ShardPlan) -> Result<Vec<Verdict>, String> {
    match &plan.scheme {
        SchemeConfig::Fast { clock_ns, drf } => fleet_run(plan, *clock_ns, *drf, shard, &mut Tracer::new()),
        SchemeConfig::Baseline { .. } => replay(plan, shard, &mut Tracer::new()),
    }
}

/// `FleetRunner::run` over a fast-scheme plan's jobs, as `execute_plan`
/// calls it, inside a `fleet.run` span; the jobs are scored after it.
pub fn fleet_run(
    plan: &DiagnosisPlan,
    clock_ns: f64,
    drf: DrfSpec,
    shard: ShardPlan,
    tracer: &mut Tracer,
) -> Result<Vec<Verdict>, String> {
    let jobs = fleet_jobs(plan, clock_ns, drf)?;
    tracer
        .span("fleet.run", |_| FleetRunner::new(shard).run(&jobs))
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|outcome| {
            let outcome = outcome.map_err(|e| e.to_string())?;
            let score = outcome.score();
            Ok((outcome.into_parts().1, score))
        })
        .collect()
}

/// The fleet jobs `execute_plan` runs for a fast-scheme plan, with the
/// kernel pinned (an unpinned plan inherits the library default, since
/// the benchmark refuses to run with `ESRAM_*` variables set).
pub fn fleet_jobs(plan: &DiagnosisPlan, clock_ns: f64, drf: DrfSpec) -> Result<Vec<FleetJob>, String> {
    let scheme = FastScheme::new(clock_ns)
        .with_drf_mode(match drf {
            DrfSpec::None => DrfMode::None,
            DrfSpec::Nwrtm => DrfMode::Nwrtm,
            DrfSpec::Pause(ms) => DrfMode::RetentionPause(ms),
        })
        .with_kernel(plan.kernel.unwrap_or(DiagnosisKernel::BitParallel));
    plan.jobs
        .iter()
        .map(|job| Ok(FleetJob::new(builder_for(job)?, scheme)))
        .collect()
}

fn huang_scheme(plan: &DiagnosisPlan) -> HuangScheme {
    let SchemeConfig::Baseline {
        clock_ns,
        retention_pause_ms,
        max_iterations,
    } = plan.scheme
    else {
        unreachable!("baseline plans only");
    };
    let scheme = HuangScheme::new(clock_ns)
        .with_max_iterations(max_iterations)
        .with_kernel(plan.kernel.unwrap_or(DiagnosisKernel::BitParallel));
    match retention_pause_ms {
        Some(pause) => scheme.with_retention_pause(pause),
        None => scheme,
    }
}

pub fn builder_for(job: &PlannedJob) -> Result<SocBuilder, String> {
    let mut builder = Soc::builder();
    for group in &job.memories {
        builder = builder
            .memories(group.count, group.words, group.width)
            .map_err(|e| e.to_string())?;
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

/// Deterministic work counts of the fast scheme's diagnose layer.
fn count_fast_work(socs: &[Soc], results: &[DiagnosisResult], tracer: &mut Tracer) {
    let members: Vec<_> = socs.iter().flat_map(|soc| soc.memories()).collect();
    let faulty = members
        .iter()
        .filter(|member| !member.injected.is_empty())
        .count();
    let records: usize = results.iter().map(|result| result.log.len()).sum();
    let cells: u64 = socs.iter().map(Soc::total_cells).sum();
    tracer.count("bisd.fast.log_records", records as f64);
    tracer.count("bisd.members_faulty_share", faulty as f64 / members.len() as f64);
    tracer.count("bisd.fast.cells", cells as f64);
}

fn score(soc: &Soc, result: DiagnosisResult, tracer: &mut Tracer) -> Verdict {
    let score = tracer.span("score.evaluate", |_| soc.score(&result));
    tracer.add("soc.cells", soc.total_cells() as f64);
    tracer.add("soc.faults_injected", score.injected() as f64);
    (result, score)
}
