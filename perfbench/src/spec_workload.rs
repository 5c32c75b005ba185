//! The three workloads that run the `esram run` pipeline as library
//! calls: `compile_str`, then `execute_plan`, then `Json::render`.

use crate::replay::{fleet_jobs, fleet_run, production_verdicts, replay, Verdict};
use crate::trace::Tracer;
use crate::workload::{OpWork, PaperMetric, Scale, Workload, WorkloadName};
use bisd::{DiagnosisKernel, DiagnosisResult, HuangScheme};
use esram_diag::{AnalyticModel, FleetRunner, ShardPlan, ShardStrategy, Soc};
use esram_spec::{compile_str, execute_plan, DiagnosisPlan, DrfSpec, Json, SchemeConfig};
use fault_models::{FaultClass, FaultInjector};
use std::fmt::Write as _;

/// The case study's checked-in seed; at this seed the report must equal
/// the committed golden byte for byte.
pub const CASE_STUDY_SEED: u64 = 42;
/// The committed golden report of `examples/case_study_512x100.toml`,
/// relative to the repository root.
pub const CASE_STUDY_GOLDEN: &str = "examples/goldens/case_study_512x100/report.json";
/// The retention pause of the baseline's data-retention test.
const BASELINE_PAUSE_MS: u32 = 100;
/// Defect rates of the fleet's sweep.
const FLEET_RATES: [f64; 2] = [0.0005, 0.002];
/// Defect rate of the baseline comparison's SoCs.
const COMPARISON_RATE: f64 = 0.01;
/// The baseline's `M1` iterations and simulated cycles a comparison SoC
/// must take (see [`balanced_seeds`]): in a census of 60
/// decoder-balanced SoCs, the most common iteration count and the band
/// around the most common cycle count.
const BASELINE_ITERATIONS: u64 = 7;
const BASELINE_CYCLES: std::ops::RangeInclusive<u64> = 522_240..=557_056;
/// The SoC seeds the comparison draws from: the first 32 seeds of
/// [`COMPARISON_POOL_STREAM`]'s stream that [`balanced_seeds`] keeps
/// with the baseline band (the self-test derives them again). They are
/// 32 of the first 737 candidates (204 pass the decoder filter), so
/// drawing a run's SoCs from its own seed's stream took a set-up
/// 0.5-4 s of baseline diagnoses, by how lucky the draw was. A run's
/// seed picks which pool SoCs its op runs instead, and every set-up
/// does the same work.
#[cfg(test)]
const COMPARISON_POOL_STREAM: u64 = 0;
const COMPARISON_POOL: [u64; 32] = [
    237_608_549_177_924,
    240_798_954_885_131,
    116_239_779_009_059,
    72_013_605_601_754,
    68_740_627_658_302,
    142_347_479_810_208,
    34_609_998_246_153,
    25_934_134_037_993,
    175_829_484_861_908,
    122_129_620_338_372,
    272_952_189_109_069,
    62_358_261_730_924,
    38_300_592_443_755,
    238_699_798_782_703,
    109_927_272_807_481,
    108_804_230_050_570,
    258_098_821_045_749,
    31_861_142_262_994,
    265_853_706_062_199,
    23_635_444_944_304,
    66_755_478_749_835,
    196_927_826_090_759,
    121_201_374_000_584,
    12_700_908_728_501,
    23_715_679_860_827,
    30_222_917_066_979,
    15_725_753_172_785,
    232_270_984_960_486,
    86_196_869_527_351,
    100_309_943_757_418,
    171_364_381_776_365,
    113_829_294_420_573,
];
/// SoCs per comparison op.
const COMPARISON_SOCS: usize = 8;

/// One spec the op runs, with the references its output is checked
/// against.
#[derive(Debug)]
struct SpecRun {
    source: String,
    /// The verified report bytes every op must reproduce.
    reference: String,
    /// The same report parsed; the traced op times its rendering.
    report: Json,
    /// Per-job verdicts of `execute_plan`'s own path, matched against the
    /// report's rows at set-up; the traced replay must reproduce them.
    verdicts: Vec<Verdict>,
    totals: ReportTotals,
}

/// What one op produced.
#[derive(Debug)]
pub enum SpecOutput {
    /// The untraced op: one rendered report per spec.
    Reports(Vec<String>),
    /// The traced op: per spec, the replay's verdicts and the rendered
    /// reference; then the verdicts of `FleetRunner::run` and, on the
    /// fleet, the results of the two-worker diagnosis.
    Replay {
        runs: Vec<(Vec<Verdict>, String)>,
        fleet_run: Vec<Verdict>,
        two_workers: Option<Vec<DiagnosisResult>>,
    },
}

/// Sums over a report's jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReportTotals {
    fast: bool,
    jobs: u64,
    cells: u64,
    injected: u64,
    located: u64,
    diagnosis_ms: f64,
}

#[derive(Debug)]
pub struct SpecWorkload {
    name: WorkloadName,
    scale: Scale,
    shard: ShardPlan,
    runs: Vec<SpecRun>,
    /// Address-decoder faults over the proposed scheme's SoCs.
    decoder_faults: usize,
}

/// A `[[memory]]` group: count, words, width.
type Group = (usize, u64, usize);

fn memory_groups(groups: &[Group]) -> String {
    let mut out = String::new();
    for (count, words, width) in groups {
        let _ = write!(
            out,
            "\n[[memory]]\ncount = {count}\nwords = {words}\nwidth = {width}\n"
        );
    }
    out
}

/// The mixed-geometry population of the distributed workloads.
fn mixed_population(count: usize) -> Vec<Group> {
    vec![(count, 64, 16), (count, 32, 8), (count, 128, 8), (count, 16, 4)]
}

/// Builds one population of the distributed workloads (four-class plus
/// DRF defects) as a spec job with these memories, rate and seed would.
fn population(groups: &[Group], rate: f64, seed: u64) -> Result<Soc, String> {
    let mut builder = Soc::builder();
    for &(count, words, width) in groups {
        builder = builder.memories(count, words, width).map_err(|e| e.to_string())?;
    }
    builder
        .defect_rate(rate)
        .seed(seed)
        .with_data_retention_defects()
        .build_with(ShardPlan::with_threads(1))
        .map_err(|e| e.to_string())
}

/// A population's address-decoder faults.
fn decoder_faults(soc: &Soc) -> usize {
    soc.memories()
        .iter()
        .flat_map(|member| member.injected.iter())
        .filter(|fault| fault.class() == FaultClass::AddressDecoder)
        .count()
}

/// Whether the baseline's diagnosis of a population, with the
/// comparison's retention pause, takes [`BASELINE_ITERATIONS`] and
/// [`BASELINE_CYCLES`].
fn baseline_in_band(mut soc: Soc) -> Result<bool, String> {
    let result = HuangScheme::new(10.0)
        .with_retention_pause(BASELINE_PAUSE_MS)
        .with_kernel(DiagnosisKernel::BitParallel)
        .diagnose_with(ShardPlan::with_threads(1), soc.memories_mut())
        .map_err(|e| e.to_string())?;
    Ok(result.iterations == BASELINE_ITERATIONS && BASELINE_CYCLES.contains(&result.cycles))
}

/// `count` SoC seeds drawn from the run seed's stream (shifted to stay
/// within TOML's signed 64-bit integers). The number of defect sites of
/// a population is fixed by its geometry and rate; which class each
/// site gets is drawn from the seed. Address-decoder faults alias whole
/// rows, so their number sets most of a population's diagnosis and
/// scoring work: a draw of the fleet with a few more of them took a
/// quarter longer per op. So a candidate seed is kept only if, at every
/// rate, its decoder faults are within one of a fifth of its defects
/// (the expected share under the four-class-plus-DRF profile).
///
/// With `baseline_band`, a candidate is also kept only if the baseline's
/// diagnosis of it takes [`BASELINE_ITERATIONS`] and
/// [`BASELINE_CYCLES`]. The baseline sweeps every faulty member once per
/// pass until a pass finds nothing new, so its host time follows its
/// pass counts, which the decoder filter leaves free: over 60 filtered
/// SoCs the Huang diagnosis took 5-13 ms, in step with 0.39-1.08 M
/// simulated cycles, and two seeds of twelve such SoCs differed by 18 %
/// per op.
///
/// Either way the seed decides which faults the populations carry, not
/// how much work they are.
fn balanced_seeds(
    seed: u64,
    count: usize,
    groups: &[Group],
    rates: &[f64],
    baseline_band: bool,
) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::with_capacity(count);
    let mut stream = 0;
    while seeds.len() < count {
        let candidate = FaultInjector::stream_seed(seed, stream) >> 16;
        stream += 1;
        let mut balanced = true;
        for &rate in rates {
            let soc = population(groups, rate, candidate)?;
            balanced &= (decoder_faults(&soc) as f64 - soc.injected_faults() as f64 / 5.0).abs() <= 1.0;
            if balanced && baseline_band {
                balanced &= baseline_in_band(soc)?;
            }
        }
        if balanced {
            seeds.push(candidate);
        }
    }
    Ok(seeds)
}

/// `count` distinct seeds of [`COMPARISON_POOL`], in an order drawn from
/// the run seed.
fn comparison_socs(seed: u64, count: usize) -> Vec<u64> {
    let mut pool = COMPARISON_POOL.to_vec();
    pool.sort_by_key(|&soc| FaultInjector::stream_seed(seed, soc));
    pool.truncate(count);
    pool
}

fn toml_list<T: ToString>(items: &[T]) -> String {
    items
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The spec texts an op runs, each generated from the run's seed, paired
/// with the same text on the per-memory oracle kernel (the set-up's
/// reference run). The execution section pins the kernels.
fn sources(name: WorkloadName, seed: u64, scale: Scale) -> Result<Vec<(String, String)>, String> {
    let tiny = scale == Scale::Tiny;
    // The SoC seeds of the distributed workloads, drawn once for both
    // kernels.
    let (groups, socs) = match name {
        WorkloadName::CaseStudy | WorkloadName::FaultSimCampaign => (Vec::new(), Vec::new()),
        WorkloadName::DistributedFleet => {
            let (count, seeds) = if tiny { (2, 2) } else { (16, 8) };
            let groups = mixed_population(count);
            let socs = balanced_seeds(seed, seeds, &groups, &FLEET_RATES, false)?;
            (groups, socs)
        }
        WorkloadName::BaselineComparison => {
            let (count, socs) = if tiny { (1, 2) } else { (2, COMPARISON_SOCS) };
            (mixed_population(count), comparison_socs(seed, socs))
        }
    };
    let texts = |kernel: Option<&str>| {
        let execution = |default: Option<&str>| match kernel.or(default) {
            Some(kernel) => format!("\n[execution]\nkernel = \"{kernel}\"\nfaultsim_kernel = \"lanes\"\n"),
            None => String::new(),
        };
        match name {
            // The paper's headline run. It leaves the kernel unpinned, as
            // the checked-in example does, so its report can be compared
            // with the committed golden ("kernel": "inherit"); the
            // environment check makes "inherit" resolve to the default.
            // Its defects are stuck-at and transition only, each a single
            // cell, so the seed moves no work and needs no filter.
            WorkloadName::CaseStudy => {
                let (words, width) = if tiny { (64, 16) } else { (512, 100) };
                vec![format!(
                    "[scenario]\nname = \"case_study_512x100\"\nseed = {seed}\n{}\n[defects]\nrate = 0.01\n\
                     classes = [\"stuck-at\", \"transition\"]\n\n[scheme]\nkind = \"fast\"\nclock_ns = 10.0\n\
                     drf = \"none\"\n{}",
                    memory_groups(&[(4, words, width)]),
                    execution(None),
                )]
            }
            WorkloadName::DistributedFleet => vec![format!(
                "[scenario]\nname = \"distributed_fleet\"\nseed = {seed}\n{}\n[defects]\n\
                 data_retention = true\n\n[scheme]\nkind = \"fast\"\ndrf = \"nwrtm\"\n{}\n[sweep]\n\
                 defect_rates = [{}]\nseeds = [{}]\n",
                memory_groups(&groups),
                execution(Some("bit-parallel")),
                toml_list(&FLEET_RATES),
                toml_list(&socs),
            )],
            WorkloadName::BaselineComparison => {
                let spec = |label: &str, scheme: &str| {
                    format!(
                        "[scenario]\nname = \"baseline_comparison_{label}\"\nseed = {seed}\n{}\n[defects]\n\
                         rate = {COMPARISON_RATE}\ndata_retention = true\n\n[scheme]\n{scheme}\n{}\n[sweep]\n\
                         seeds = [{}]\n",
                        memory_groups(&groups),
                        execution(Some("bit-parallel")),
                        toml_list(&socs),
                    )
                };
                vec![
                    spec(
                        "baseline",
                        &format!("kind = \"baseline\"\ndrf = \"pause\"\npause_ms = {BASELINE_PAUSE_MS}\n"),
                    ),
                    spec("proposed", "kind = \"fast\"\ndrf = \"nwrtm\"\n"),
                ]
            }
            WorkloadName::FaultSimCampaign => unreachable!("fault_sim_campaign runs no spec"),
        }
    };
    Ok(texts(None).into_iter().zip(texts(Some("per-memory"))).collect())
}

/// Compiles, executes and renders one spec: the `esram run` pipeline
/// without the process spawn and the file writes.
fn run_spec(source: &str, shard: ShardPlan) -> Result<String, String> {
    let plan = compile_str(source).map_err(|e| e.to_string())?;
    let run = execute_plan(&plan, &shard)?;
    Ok(run.report.render())
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("report has no '{key}'"))
}

fn int(json: &Json, key: &str) -> Result<u64, String> {
    field(json, key)?
        .as_int()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("report field '{key}' is not a count"))
}

fn float(json: &Json, key: &str) -> Result<f64, String> {
    match field(json, key)? {
        Json::Float(v) => Ok(*v),
        Json::Int(v) => Ok(*v as f64),
        _ => Err(format!("report field '{key}' is not a number")),
    }
}

fn rows(report: &Json) -> Result<&[Json], String> {
    field(report, "jobs")?
        .as_array()
        .ok_or_else(|| "report 'jobs' is not an array".to_string())
}

/// Checks a report's rows: none failed, `analytic_exact` is true
/// wherever it is not null. Returns the totals over its jobs.
fn check_report(report: &Json) -> Result<ReportTotals, String> {
    let fast = field(field(report, "scheme")?, "kind")?.as_str() == Some("fast");
    let jobs = rows(report)?;
    if jobs.is_empty() {
        return Err("report has no jobs".to_string());
    }
    let mut totals = ReportTotals {
        fast,
        jobs: jobs.len() as u64,
        cells: 0,
        injected: 0,
        located: 0,
        diagnosis_ms: 0.0,
    };
    for job in jobs {
        let label = field(job, "label")?.as_str().unwrap_or("?");
        if field(job, "status")?.as_str() != Some("ok") {
            return Err(format!("job '{label}' failed"));
        }
        if matches!(field(job, "analytic_exact")?, Json::Bool(false)) {
            return Err(format!(
                "job '{label}': simulated cycles differ from the closed form"
            ));
        }
        totals.cells += int(job, "cells")?;
        totals.injected += int(job, "injected")?;
        totals.located += int(job, "located_injected")?;
        totals.diagnosis_ms += float(job, "diagnosis_ms")?;
    }
    if int(field(report, "summary")?, "failed")? != 0 {
        return Err("report summary counts failed jobs".to_string());
    }
    Ok(totals)
}

/// Checks per-job verdicts against the report rows they must agree with.
fn match_rows(report: &Json, verdicts: &[Verdict]) -> Result<(), String> {
    let jobs = rows(report)?;
    if jobs.len() != verdicts.len() {
        return Err("verdict count differs from the report's jobs".to_string());
    }
    for (row, (result, score)) in jobs.iter().zip(verdicts) {
        for (key, value) in [
            ("cycles", result.cycles),
            ("iterations", result.iterations),
            ("injected", score.injected() as u64),
            ("located_injected", score.located() as u64),
            ("additional_sites", score.additional_sites as u64),
            ("located_sites", result.located_count() as u64),
        ] {
            if int(row, key)? != value {
                return Err(format!("report row '{key}' differs from the verdict"));
            }
        }
    }
    Ok(())
}

/// The case study's paper checks: the committed golden at its own seed;
/// at any other seed Eq. (2) cycles and every fault located.
fn check_case_study(
    plan: &DiagnosisPlan,
    report: &Json,
    bytes: &str,
    seed: u64,
    scale: Scale,
) -> Result<(), String> {
    if seed == CASE_STUDY_SEED && scale == Scale::Full {
        let golden =
            std::fs::read_to_string(CASE_STUDY_GOLDEN).map_err(|e| format!("{CASE_STUDY_GOLDEN}: {e}"))?;
        if golden != bytes {
            return Err(format!("case-study report differs from {CASE_STUDY_GOLDEN}"));
        }
    }
    let job = &plan.jobs[0];
    let group = &job.memories[0];
    let eq2 = AnalyticModel::new(group.words, group.width as u64, plan.scheme.clock_ns()).proposed_cycles();
    for row in rows(report)? {
        if int(row, "cycles")? != eq2 {
            return Err(format!(
                "case study ran {} cycles, Eq. (2) gives {eq2}",
                int(row, "cycles")?
            ));
        }
        if int(row, "located_injected")? != int(row, "injected")? {
            return Err("case study left injected faults unlocated".to_string());
        }
    }
    Ok(())
}

/// The clock and DRF mode of a fast-scheme plan.
fn fast_scheme(plan: &DiagnosisPlan) -> Result<(f64, DrfSpec), String> {
    match plan.scheme {
        SchemeConfig::Fast { clock_ns, drf } => Ok((clock_ns, drf)),
        SchemeConfig::Baseline { .. } => Err("not a fast-scheme spec".to_string()),
    }
}

impl SpecWorkload {
    pub fn setup(name: WorkloadName, seed: u64, scale: Scale, tracer: &mut Tracer) -> Result<Self, String> {
        // One worker: on a 2-vCPU host shared with other tenants, a
        // two-worker op's median moved by 30 % between runs. The
        // two-worker executor path is timed in the traced run instead.
        let shard = ShardPlan::with_threads(1).with_strategy(ShardStrategy::Cost);
        let sources = sources(name, seed, scale)?;
        let mut runs = Vec::with_capacity(sources.len());
        let mut decoder = 0;
        for (source, oracle_source) in sources {
            let plan = compile_str(&source).map_err(|e| format!("generated spec: {e}"))?;
            // The one-off references: the same spec on the per-memory
            // oracle kernel, whose jobs must match the production run's,
            // and the per-job verdicts of the production path, which
            // must match the report's rows.
            let oracle_bytes = tracer.span("check.reference", |_| run_spec(&oracle_source, shard))?;
            let verdicts = tracer.span("check.reference", |_| production_verdicts(&plan, shard))?;
            let bytes = tracer.span("warmup", |_| run_spec(&source, shard))?;
            let report = Json::parse(&bytes)?;
            let oracle_report = Json::parse(&oracle_bytes)?;
            for key in ["summary", "jobs"] {
                if field(&report, key)? != field(&oracle_report, key)? {
                    return Err(format!("report '{key}' differs from the per-memory oracle's"));
                }
            }
            let totals = check_report(&report)?;
            match_rows(&report, &verdicts)?;
            if name == WorkloadName::CaseStudy {
                check_case_study(&plan, &report, &bytes, seed, scale)?;
            }
            // The case study's defects are cell faults only.
            if totals.fast && name != WorkloadName::CaseStudy {
                for job in &plan.jobs {
                    let groups: Vec<Group> = job
                        .memories
                        .iter()
                        .map(|group| (group.count, group.words, group.width))
                        .collect();
                    decoder += decoder_faults(&population(&groups, job.defect_rate, job.seed)?);
                }
            }
            runs.push(SpecRun {
                source,
                reference: bytes,
                report,
                verdicts,
                totals,
            });
        }
        Ok(SpecWorkload {
            name,
            scale,
            shard,
            runs,
            decoder_faults: decoder,
        })
    }

    fn run(&self, kind_fast: bool) -> &SpecRun {
        self.runs
            .iter()
            .find(|run| run.totals.fast == kind_fast)
            .expect("workload runs this scheme")
    }

    /// `FleetRunner::diagnose` of the fleet at two workers, on a fresh
    /// population, timed as its own root span; the traced op times the
    /// same call at the workload's one worker.
    fn diagnose_two_workers(
        &self,
        plan: &DiagnosisPlan,
        tracer: &mut Tracer,
    ) -> Result<Vec<DiagnosisResult>, String> {
        let (clock_ns, drf) = fast_scheme(plan)?;
        let jobs = fleet_jobs(plan, clock_ns, drf)?;
        let runner = FleetRunner::new(ShardPlan::with_threads(2).with_strategy(ShardStrategy::Cost));
        let fleet_plan = runner.plan(&jobs).map_err(|e| e.to_string())?;
        let mut socs = runner.build(&fleet_plan).map_err(|e| e.to_string())?;
        tracer
            .span("exec.diagnose_2w", |_| runner.diagnose(&fleet_plan, &mut socs))
            .map_err(|e| e.to_string())
    }
}

impl Workload for SpecWorkload {
    type Output = SpecOutput;

    fn op(&self) -> Result<SpecOutput, String> {
        self.runs
            .iter()
            .map(|run| run_spec(&run.source, self.shard))
            .collect::<Result<_, _>>()
            .map(SpecOutput::Reports)
    }

    fn traced_op(&self, tracer: &mut Tracer) -> Result<SpecOutput, String> {
        let (runs, fast_plan) = tracer.span("op", |t| {
            let mut runs = Vec::with_capacity(self.runs.len());
            let mut fast_plan = None;
            for run in &self.runs {
                let plan = t
                    .span("spec.compile", |_| compile_str(&run.source))
                    .map_err(|e| e.to_string())?;
                let verdicts = replay(&plan, self.shard, t)?;
                runs.push((verdicts, t.span("report.render", |_| run.report.render())));
                if run.totals.fast {
                    fast_plan = Some(plan);
                }
            }
            Ok::<_, String>((runs, fast_plan))
        })?;
        let plan = fast_plan.ok_or("workload runs no fast-scheme spec")?;
        // `execute_plan`'s own call, with its per-job isolation, timed
        // beside the phase methods the replay calls.
        let (clock_ns, drf) = fast_scheme(&plan)?;
        let run_verdicts = fleet_run(&plan, clock_ns, drf, self.shard, tracer)?;
        let two_workers = if self.name == WorkloadName::DistributedFleet {
            Some(self.diagnose_two_workers(&plan, tracer)?)
        } else {
            None
        };
        Ok(SpecOutput::Replay {
            runs,
            fleet_run: run_verdicts,
            two_workers,
        })
    }

    fn check(&self, output: &SpecOutput) -> Result<(), String> {
        match output {
            SpecOutput::Reports(reports) => {
                if reports.len() != self.runs.len() {
                    return Err("op produced the wrong number of reports".to_string());
                }
                for (report, run) in reports.iter().zip(&self.runs) {
                    if *report != run.reference {
                        return Err("report bytes differ from the verified reference".to_string());
                    }
                }
            }
            SpecOutput::Replay {
                runs,
                fleet_run,
                two_workers,
            } => {
                if runs.len() != self.runs.len() {
                    return Err("traced op replayed the wrong number of specs".to_string());
                }
                for ((verdicts, report), run) in runs.iter().zip(&self.runs) {
                    if *verdicts != run.verdicts {
                        return Err("replayed verdicts differ from execute_plan's".to_string());
                    }
                    if *report != run.reference {
                        return Err("rendered report differs from the reference".to_string());
                    }
                }
                let fast = &self.run(true).verdicts;
                if fleet_run != fast {
                    return Err("FleetRunner::run verdicts differ from execute_plan's".to_string());
                }
                if let Some(results) = two_workers {
                    if !results.iter().eq(fast.iter().map(|(result, _)| result)) {
                        return Err("diagnosis at two workers differs from one worker".to_string());
                    }
                }
            }
        }
        Ok(())
    }

    fn work(&self) -> OpWork {
        OpWork {
            cells: self.runs.iter().map(|run| run.totals.cells).sum(),
            faults: self.runs.iter().map(|run| run.totals.injected).sum(),
        }
    }

    fn location_coverage(&self) -> f64 {
        let totals = self.run(true).totals;
        totals.located as f64 / totals.injected as f64
    }

    fn paper_metrics(&self) -> Vec<PaperMetric> {
        let fast = self.run(true).totals;
        let sim_diag_ms = fast.diagnosis_ms / fast.jobs as f64;
        let mut metrics = vec![
            PaperMetric::new("sim_diag_ms", sim_diag_ms, "ms"),
            PaperMetric::new("location_coverage", self.location_coverage(), "ratio"),
            PaperMetric::new("injected_faults", fast.injected as f64, "count"),
            PaperMetric::new("decoder_faults", self.decoder_faults as f64, "count"),
        ];
        if self.name == WorkloadName::CaseStudy {
            let (words, width) = if self.scale == Scale::Tiny {
                (64, 16)
            } else {
                (512, 100)
            };
            let eq2_ms = AnalyticModel::new(words, width, 10.0).proposed_time().total_ms();
            metrics.push(PaperMetric::new("sim_diag_ms_eq2", eq2_ms, "ms"));
            metrics.push(PaperMetric::new(
                "sim_diag_ms_error",
                (sim_diag_ms - eq2_ms).abs() / eq2_ms,
                "ratio",
            ));
        }
        if self.name == WorkloadName::BaselineComparison {
            let baseline = self.run(false).totals;
            let baseline_ms = baseline.diagnosis_ms / baseline.jobs as f64;
            metrics.push(PaperMetric::new(
                "sim_reduction_r",
                baseline_ms / sim_diag_ms,
                "ratio",
            ));
            metrics.push(PaperMetric::new(
                "baseline_location_coverage",
                baseline.located as f64 / baseline.injected as f64,
                "ratio",
            ));
        }
        metrics
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        let (diagnosis, faultsim) = if self.name == WorkloadName::CaseStudy {
            ("inherit (resolves to bitparallel)", "inherit (resolves to lanes)")
        } else {
            ("bitparallel", "lanes")
        };
        vec![
            ("threads", self.shard.threads().to_string()),
            ("strategy", self.shard.strategy().to_string()),
            ("block_size", self.shard.block_size().to_string()),
            ("diagnosis_kernel", diagnosis.to_string()),
            ("faultsim_kernel", faultsim.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_pool_is_the_filtered_stream() {
        let derived = balanced_seeds(
            COMPARISON_POOL_STREAM,
            COMPARISON_POOL.len(),
            &mixed_population(2),
            &[COMPARISON_RATE],
            true,
        )
        .unwrap();
        assert_eq!(derived, COMPARISON_POOL, "{derived:?}");
    }

    #[test]
    fn comparison_socs_differ_by_seed() {
        let first = comparison_socs(1, COMPARISON_SOCS);
        assert_eq!(first, comparison_socs(1, COMPARISON_SOCS));
        assert_ne!(first, comparison_socs(2, COMPARISON_SOCS));
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), COMPARISON_SOCS);
    }
}
