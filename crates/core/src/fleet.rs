//! Fleet-scale batched diagnosis: many independent SoC jobs through
//! **one** deterministic executor run.
//!
//! Silicon bring-up rarely diagnoses one SoC at a time — a
//! characterisation lot is dozens of dies (or dozens of candidate
//! configurations of one die), each an independent job: build the
//! population, plan the controller's schedule, replay it over every
//! memory. Running jobs serially leaves the executor idle at every
//! job boundary: a job with one small memory cannot use more than one
//! worker no matter how many the plan offers.
//!
//! The fleet runner removes those boundaries. It flattens every job's
//! shardable work items into one global work list per phase and lets
//! the cost-weighted executor split the *combined* list,
//! so a worker that finishes its share of one job's memories
//! immediately continues into the next job's:
//!
//! 1. **Plan** — each job's [`FastScheme`] plans its population once
//!    ([`FastScheme::plan_population`]): schedule, delivered patterns,
//!    Eq. (2) cycle accounting, kernel decision.
//!    Planning is controller work, independent of sharding.
//! 2. **Build** — every `(job, member)` pair becomes one item of a
//!    single [`ShardPlan::map_slots_isolated`] run, weighted by the
//!    member's cell count. A member's defects are a pure function of
//!    `(job seed, member index, geometry)`, so the batched build is
//!    bit-identical to each job building alone.
//! 3. **Diagnose** — every memory of every job becomes one item of a
//!    single [`try_run_segments`](ShardPlan::try_run_segments) run,
//!    weighted by its job's [`member_cost`](PopulationPlan::member_cost).
//!    A segment may span jobs; the worker replays each job-contiguous
//!    chunk through that job's [`PopulationPlan::run_segment`] and the
//!    outcomes are demultiplexed back per job and merged
//!    ([`PopulationPlan::merge`]) in member order.
//!
//! Each phase has one implementation. [`FleetRunner::run`] chains the
//! three; [`FleetRunner::plan`], [`FleetRunner::build`] and
//! [`FleetRunner::diagnose`] run one phase each, under the same
//! per-job containment, and fail with the first failing job's error.
//!
//! Determinism is inherited, not re-proved: the executor returns
//! results in exact item order at every worker count, each segment
//! hands over its members' located sites per member, and `merge`
//! concatenates a job's segments in member order regardless of where
//! segment boundaries fell — so each job's [`DiagnosisResult`] is
//! byte-identical to what [`FastScheme::diagnose_with`] produces for
//! that job alone, under any plan. The per-item costs move only the
//! shard *boundaries*, never the results. The fleet determinism
//! suite asserts both properties across worker counts and kernels.
//!
//! # Fault domains
//!
//! Each job is its own fault domain. [`FleetRunner::run`] returns one
//! [`JobOutcome`] per job: a job whose plan, build or diagnosis
//! panicked, errored or hit an armed failpoint fails with a structured
//! [`FleetError`] naming the [`FleetPhase`], while every *other* job's
//! outcome stays byte-identical to its solo run at any worker count ×
//! kernel — which the chaos suite asserts by poisoning
//! one job at a time. Only a panic that escapes the per-job containment
//! fails the whole call. The instrumented failpoint
//! sites are `soc.build` (qualified by `job` and `member`) and
//! `diag.segment` (qualified by `job`).

use crate::soc::Soc;
use crate::SocBuilder;
use bisd::{DiagnosisResult, FastScheme, MemoryUnderDiagnosis, PopulationPlan, SegmentOutcome};
use esram_exec::{failpoint, panic_payload, ExecError, ItemFault, ShardPlan};
use fault_models::DefectProfile;
use sram_model::{MemError, MemoryId, Sram};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One independent diagnosis job: a population to build and the scheme
/// to diagnose it with.
#[derive(Debug, Clone)]
pub struct FleetJob {
    builder: SocBuilder,
    scheme: FastScheme,
}

impl FleetJob {
    /// Pairs a population builder with the scheme that will diagnose it.
    pub fn new(builder: SocBuilder, scheme: FastScheme) -> Self {
        FleetJob { builder, scheme }
    }

    /// The job's population builder.
    pub fn builder(&self) -> &SocBuilder {
        &self.builder
    }

    /// The job's diagnosis scheme.
    pub fn scheme(&self) -> &FastScheme {
        &self.scheme
    }
}

/// Everything the fleet computes *before* any memory is touched: each
/// job's [`PopulationPlan`] (one per distinct scheme and member
/// geometry list, shared by every job that has them) plus the flattened
/// global work list with its per-item costs.
///
/// Built by [`FleetRunner::plan`]; the cost accessors let the
/// throughput benchmark model the executor's critical path without
/// running it.
#[derive(Debug)]
pub struct FleetPlan {
    jobs: Vec<FleetJob>,
    populations: Vec<Arc<PopulationPlan>>,
    /// Flattened `(job, member)` pairs, job-major, member order.
    members: Vec<(usize, usize)>,
}

impl FleetPlan {
    /// Total number of memories across all jobs.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The owning job of every flattened member, in global item order.
    pub fn member_jobs(&self) -> Vec<usize> {
        self.members.iter().map(|&(job, _)| job).collect()
    }

    /// Diagnosis cost of every flattened member, in global item order —
    /// exactly the weights the diagnose phase hands the executor's
    /// cost-balanced partition.
    pub fn member_costs(&self) -> Vec<u64> {
        self.members
            .iter()
            .map(|&(job, member)| self.populations[job].member_cost(member))
            .collect()
    }

    /// Job `job`'s population plan (the same plan for every job with the
    /// same scheme and member geometries).
    pub fn population_plan(&self, job: usize) -> &PopulationPlan {
        &self.populations[job]
    }
}

/// One job's finished output: the built (and now diagnosed) population
/// and its diagnosis result.
#[derive(Debug)]
pub struct FleetOutcome {
    soc: Soc,
    result: DiagnosisResult,
}

impl FleetOutcome {
    /// The job's built population.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// The job's diagnosis result.
    pub fn result(&self) -> &DiagnosisResult {
        &self.result
    }

    /// Scores the diagnosis against the population's injected ground
    /// truth.
    pub fn score(&self) -> crate::DiagnosisScore {
        self.soc.score(&self.result)
    }

    /// Decomposes into the population and the result.
    pub fn into_parts(self) -> (Soc, DiagnosisResult) {
        (self.soc, self.result)
    }
}

/// The pipeline phase a per-job failure occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPhase {
    /// Controller planning ([`FastScheme::plan_population`]).
    Plan,
    /// Population construction (the batched build).
    Build,
    /// Schedule replay (the batched diagnosis).
    Diagnose,
}

impl fmt::Display for FleetPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetPhase::Plan => write!(f, "plan"),
            FleetPhase::Build => write!(f, "build"),
            FleetPhase::Diagnose => write!(f, "diagnose"),
        }
    }
}

/// Why a job (or, when a panic escapes the per-job containment, the
/// whole fleet run) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// The memory model rejected the job's configuration or an
    /// operation on one of its members.
    Memory(MemError),
    /// The job's work panicked in the named phase; the panic was
    /// contained to the job and the payload is carried as a string.
    Panicked {
        /// Phase the panic occurred in.
        phase: FleetPhase,
        /// The panic payload rendered as a string.
        payload: String,
    },
    /// An armed failpoint injected an error into the job.
    Injected {
        /// Phase the injection occurred in.
        phase: FleetPhase,
        /// The failpoint site that fired.
        site: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Memory(error) => write!(f, "memory model error: {error}"),
            FleetError::Panicked { phase, payload } => {
                write!(f, "job panicked during {phase}: {payload}")
            }
            FleetError::Injected { phase, site } => {
                write!(f, "injected failure during {phase} at {site}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MemError> for FleetError {
    fn from(error: MemError) -> Self {
        FleetError::Memory(error)
    }
}

impl FleetError {
    /// Maps a run-level executor failure into the fleet taxonomy. A
    /// worker panic at this level means the panic escaped the per-job
    /// containment (e.g. a cost closure panicked) — still contained,
    /// reported as a fleet-global [`FleetError::Panicked`].
    fn from_exec(phase: FleetPhase, error: ExecError) -> FleetError {
        match error {
            ExecError::WorkerPanic { payload, .. } => FleetError::Panicked { phase, payload },
            // ExecError is non_exhaustive; render any future variant.
            other => FleetError::Panicked {
                phase,
                payload: other.to_string(),
            },
        }
    }
}

/// One job's verdict from [`FleetRunner::run`]: the finished
/// [`FleetOutcome`], or the structured reason this job (alone) failed.
pub type JobOutcome = Result<FleetOutcome, FleetError>;

/// A build-item or diagnosis-chunk failure, before it is demultiplexed
/// onto its job.
enum JobFault {
    Memory(MemError),
    Injected(String),
    Panicked(String),
}

impl JobFault {
    fn into_error(self, phase: FleetPhase) -> FleetError {
        match self {
            JobFault::Memory(error) => FleetError::Memory(error),
            JobFault::Injected(site) => FleetError::Injected { phase, site },
            JobFault::Panicked(payload) => FleetError::Panicked { phase, payload },
        }
    }
}

/// One flattened diagnosis work item: a borrowed memory tagged with its
/// owning job and its member index within that job.
#[derive(Debug)]
struct MemberSlot<'a> {
    job: usize,
    member: usize,
    id: MemoryId,
    sram: &'a mut Sram,
}

/// Batched runner for N independent jobs under one [`ShardPlan`].
///
/// See the [module documentation](self) for the three-phase pipeline,
/// the determinism argument and the per-job fault domains.
#[derive(Debug, Clone, Default)]
pub struct FleetRunner {
    shard: ShardPlan,
}

impl FleetRunner {
    /// A runner executing under the given shard plan (its worker count
    /// applies to the *combined* work list of all jobs).
    pub fn new(shard: ShardPlan) -> Self {
        FleetRunner { shard }
    }

    /// Plans, builds and diagnoses every job in one batched pipeline
    /// and returns one [`JobOutcome`] per job, in job order — each job
    /// its own fault domain.
    ///
    /// A job whose plan, build or diagnosis fails (memory-model error,
    /// contained panic, armed failpoint) comes back as
    /// `Err(`[`FleetError`]`)` in its slot and is excluded from later
    /// phases; every **other** job's outcome is byte-identical to its
    /// solo run at any worker count and kernel. The outer
    /// `Result` fails only when a panic escaped the per-job
    /// containment.
    ///
    /// Degenerate inputs are well-defined, not special-cased
    /// downstream: **zero jobs** returns an empty vector, and **one job
    /// under many workers**
    /// degrades to exactly [`FastScheme::diagnose_with`] — the
    /// flattened work list is that job's member list, so surplus
    /// workers idle and the output is the single-job output.
    ///
    /// # Errors
    ///
    /// [`FleetError::Panicked`] if a panic escaped the per-job
    /// containment (a bug, not a job fault).
    pub fn run(&self, jobs: &[FleetJob]) -> Result<Vec<JobOutcome>, FleetError> {
        let mut errors = vec![None; jobs.len()];
        let populations = plan_jobs(jobs, &mut errors);
        let mut socs = self.build_jobs(jobs, &mut errors);
        let pairs = populations
            .iter()
            .zip(&mut socs)
            .map(|(population, soc)| population.as_deref().zip(soc.as_mut()));
        let results = self.diagnose_jobs(pairs, &mut errors)?;
        let outcomes = socs
            .into_iter()
            .zip(results)
            .map(|(soc, result)| {
                Some(FleetOutcome {
                    soc: soc?,
                    result: result?,
                })
            })
            .collect();
        Ok(job_results(errors, outcomes))
    }

    /// All-or-nothing convenience over [`FleetRunner::run`]: returns
    /// every job's [`FleetOutcome`] when every job succeeded, or the
    /// first failing job's [`FleetError`] (in job order) otherwise.
    ///
    /// # Errors
    ///
    /// The first per-job [`FleetError`], or a fleet-global
    /// [`FleetError::Panicked`].
    pub fn run_all(&self, jobs: &[FleetJob]) -> Result<Vec<FleetOutcome>, FleetError> {
        self.run(jobs)?.into_iter().collect()
    }

    /// Plans every job (the first phase of [`FleetRunner::run`])
    /// without building or diagnosing anything. Zero jobs yields an
    /// empty plan.
    ///
    /// # Errors
    ///
    /// The first failing job's [`FleetError`] in job order — e.g. the
    /// `InvalidConfig` a solo [`SocBuilder::build`] reports for a job
    /// holding no memories.
    pub fn plan(&self, jobs: &[FleetJob]) -> Result<FleetPlan, FleetError> {
        let mut errors = vec![None; jobs.len()];
        let populations = plan_jobs(jobs, &mut errors);
        Ok(FleetPlan {
            jobs: jobs.to_vec(),
            members: members(jobs, &errors),
            populations: job_results(errors, populations)
                .into_iter()
                .collect::<Result<_, _>>()?,
        })
    }

    /// Builds every job's population (the second phase of
    /// [`FleetRunner::run`]) and returns the populations in job order —
    /// each bit-identical to its job building alone, at every worker
    /// count.
    ///
    /// # Errors
    ///
    /// The first failing job's [`FleetError`] in job order (injection
    /// failure, contained panic, armed `soc.build` failpoint).
    pub fn build(&self, plan: &FleetPlan) -> Result<Vec<Soc>, FleetError> {
        let mut errors = vec![None; plan.jobs.len()];
        let socs = self.build_jobs(&plan.jobs, &mut errors);
        job_results(errors, socs).into_iter().collect()
    }

    /// Diagnoses every job's population (the third phase of
    /// [`FleetRunner::run`]) and returns the per-job results in job
    /// order.
    ///
    /// # Errors
    ///
    /// The first failing job's [`FleetError`] in job order (contained
    /// panic, armed `diag.segment` failpoint, or a memory-model
    /// validation failure, which indicates a bug in the scheme), or a
    /// fleet-global [`FleetError::Panicked`].
    ///
    /// # Panics
    ///
    /// Panics if `socs` does not match the plan — same job count and,
    /// per job, the exact geometries the plan was built for (a plan
    /// replayed over a different population would compare against the
    /// wrong golden expectations).
    pub fn diagnose(&self, plan: &FleetPlan, socs: &mut [Soc]) -> Result<Vec<DiagnosisResult>, FleetError> {
        assert_eq!(
            socs.len(),
            plan.jobs.len(),
            "fleet plan and population count must match"
        );
        for (job, soc) in socs.iter().enumerate() {
            assert_eq!(
                soc.configs(),
                plan.jobs[job].builder.member_configs(),
                "job {job}: population geometries must match the plan"
            );
        }
        let mut errors = vec![None; plan.jobs.len()];
        let pairs = plan
            .populations
            .iter()
            .map(|population| &**population)
            .zip(socs)
            .map(Some);
        let results = self.diagnose_jobs(pairs, &mut errors)?;
        job_results(errors, results).into_iter().collect()
    }

    /// The build phase: every still-healthy job's members in one
    /// isolated executor run, so a panicking or erroring member fails
    /// only its own job (the first fault in member order wins). A
    /// failed job's population is `None`.
    fn build_jobs(&self, jobs: &[FleetJob], errors: &mut [Option<FleetError>]) -> Vec<Option<Soc>> {
        let profiles: Vec<DefectProfile> = jobs
            .iter()
            .map(|fleet_job| fleet_job.builder.defect_profile())
            .collect();
        let members = members(jobs, errors);
        let built = self.shard.map_slots_isolated(
            &members,
            |_, &(job, member)| jobs[job].builder.member_configs()[member].cells(),
            || (),
            |_, _, &(job, member)| {
                failpoint::fire("soc.build", &[("job", job as u64), ("member", member as u64)])
                    .map_err(|injected| JobFault::Injected(injected.site))?;
                let builder = jobs[job].builder();
                builder
                    .build_member(&profiles[job], member, builder.member_configs()[member])
                    .map_err(JobFault::Memory)
            },
        );
        let mut built_members: Vec<Vec<MemoryUnderDiagnosis>> = jobs.iter().map(|_| Vec::new()).collect();
        for (&(job, _), slot) in members.iter().zip(built) {
            if errors[job].is_some() {
                // The job already failed on an earlier member; drop
                // later results.
                continue;
            }
            match slot {
                Ok(member) => built_members[job].push(member),
                Err(ItemFault::Error(fault)) => errors[job] = Some(fault.into_error(FleetPhase::Build)),
                Err(ItemFault::Panic { payload }) => {
                    errors[job] = Some(JobFault::Panicked(payload).into_error(FleetPhase::Build));
                }
            }
        }
        built_members
            .into_iter()
            .zip(errors.iter())
            .map(|(members, error)| error.is_none().then(|| Soc::from_memories(members)))
            .collect()
    }

    /// The diagnose phase: every member of every `Some` (plan,
    /// population) pair in one executor run. A segment may span jobs;
    /// each job-contiguous chunk replays through its own plan, with the
    /// chunk's first member index as the segment base, under its own
    /// containment — so a chunk never spans a fault domain. A failed
    /// job's result is `None`.
    fn diagnose_jobs<'s>(
        &self,
        jobs: impl Iterator<Item = Option<(&'s PopulationPlan, &'s mut Soc)>>,
        errors: &mut [Option<FleetError>],
    ) -> Result<Vec<Option<DiagnosisResult>>, FleetError> {
        let mut populations = Vec::new();
        let mut slots: Vec<MemberSlot<'_>> = Vec::new();
        for (job, pair) in jobs.enumerate() {
            let Some((population, soc)) = pair else {
                populations.push(None);
                continue;
            };
            populations.push(Some(population));
            for (member, memory) in soc.memories_mut().iter_mut().enumerate() {
                slots.push(MemberSlot {
                    job,
                    member,
                    id: memory.id,
                    sram: &mut memory.sram,
                });
            }
        }
        let population = |job: usize| populations[job].expect("a job with diagnosis slots has a plan");
        let groups: Vec<Vec<(usize, Result<SegmentOutcome, JobFault>)>> = self
            .shard
            .try_run_segments(
                &mut slots,
                |_, slot| population(slot.job).member_cost(slot.member),
                |_, segment| {
                    let mut outcomes = Vec::new();
                    let mut rest = segment;
                    while !rest.is_empty() {
                        let job = rest[0].job;
                        let len = rest.iter().take_while(|slot| slot.job == job).count();
                        let (chunk, tail) = rest.split_at_mut(len);
                        let base = chunk[0].member;
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            failpoint::fire("diag.segment", &[("job", job as u64)])
                                .map_err(|injected| JobFault::Injected(injected.site))?;
                            let mut pairs: Vec<(MemoryId, &mut Sram)> =
                                chunk.iter_mut().map(|slot| (slot.id, &mut *slot.sram)).collect();
                            population(job)
                                .run_segment(base, &mut pairs)
                                .map_err(JobFault::Memory)
                        }));
                        let outcome = caught.unwrap_or_else(|payload| {
                            Err(JobFault::Panicked(panic_payload(payload.as_ref())))
                        });
                        outcomes.push((job, outcome));
                        rest = tail;
                    }
                    outcomes
                },
            )
            .map_err(|error| FleetError::from_exec(FleetPhase::Diagnose, error))?;
        // Segments come back in item order and chunks within a segment
        // preserve it too, so each job's outcomes land in member order
        // — the order `merge` concatenates them in.
        let mut per_job: Vec<Vec<SegmentOutcome>> = populations.iter().map(|_| Vec::new()).collect();
        for (job, outcome) in groups.into_iter().flatten() {
            if errors[job].is_some() {
                continue;
            }
            match outcome {
                Ok(segment) => per_job[job].push(segment),
                Err(fault) => errors[job] = Some(fault.into_error(FleetPhase::Diagnose)),
            }
        }
        Ok(per_job
            .into_iter()
            .enumerate()
            .map(|(job, outcomes)| errors[job].is_none().then(|| population(job).merge(outcomes)))
            .collect())
    }
}

/// The plan phase: the controller work of each distinct (scheme,
/// member geometries) pair, once, under its own containment. A plan
/// is a pure function of that pair, so jobs that differ only in seed
/// or defect rate share it; a failure fails every job sharing it with
/// the same error, as each solo run would. An empty population is
/// the per-job equivalent of the solo builder's `InvalidConfig`
/// rejection. A failed job's error lands in its `errors` slot and its
/// plan is `None`.
fn plan_jobs(jobs: &[FleetJob], errors: &mut [Option<FleetError>]) -> Vec<Option<Arc<PopulationPlan>>> {
    // (first job with the pair, its planning outcome)
    let mut distinct: Vec<(usize, Result<Arc<PopulationPlan>, FleetError>)> = Vec::new();
    let mut populations = Vec::with_capacity(jobs.len());
    for (job, fleet_job) in jobs.iter().enumerate() {
        let configs = fleet_job.builder.member_configs();
        let shared = distinct.iter().find(|&&(first, _)| {
            jobs[first].scheme == fleet_job.scheme && jobs[first].builder.member_configs() == configs
        });
        let planned = match shared {
            Some((_, planned)) => planned.clone(),
            None => {
                let planned = if configs.is_empty() {
                    Err(FleetError::Memory(MemError::InvalidConfig { words: 0, width: 0 }))
                } else {
                    catch_unwind(AssertUnwindSafe(|| fleet_job.scheme.plan_population(configs)))
                        .map(Arc::new)
                        .map_err(|payload| FleetError::Panicked {
                            phase: FleetPhase::Plan,
                            payload: panic_payload(payload.as_ref()),
                        })
                };
                distinct.push((job, planned.clone()));
                planned
            }
        };
        populations.push(planned.map_err(|error| errors[job] = Some(error)).ok());
    }
    populations
}

/// The flattened `(job, member)` build work list of every job whose
/// `errors` slot is still empty: job-major, member order.
fn members(jobs: &[FleetJob], errors: &[Option<FleetError>]) -> Vec<(usize, usize)> {
    jobs.iter()
        .enumerate()
        .filter(|&(job, _)| errors[job].is_none())
        .flat_map(|(job, fleet_job)| {
            (0..fleet_job.builder.member_configs().len()).map(move |member| (job, member))
        })
        .collect()
}

/// Each job's phase output, or the error that failed the job. The
/// phase methods collect this into the first failing job's error.
fn job_results<T>(errors: Vec<Option<FleetError>>, values: Vec<Option<T>>) -> Vec<Result<T, FleetError>> {
    errors
        .into_iter()
        .zip(values)
        .map(|(error, value)| match error {
            Some(error) => Err(error),
            None => Ok(value.expect("a healthy job has a value")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_jobs() -> Vec<FleetJob> {
        let mut jobs = Vec::new();
        for seed in 0..3u64 {
            jobs.push(FleetJob::new(
                Soc::builder()
                    .memory(64, 16)
                    .unwrap()
                    .memories(2, 32, 8)
                    .unwrap()
                    .defect_rate(0.02)
                    .seed(seed),
                FastScheme::new(10.0),
            ));
        }
        jobs.push(FleetJob::new(
            Soc::builder()
                .memories(4, 128, 20)
                .unwrap()
                .defect_rate(0.01)
                .seed(99),
            FastScheme::new(10.0),
        ));
        jobs
    }

    fn serial_baseline(jobs: &[FleetJob]) -> Vec<(Soc, DiagnosisResult)> {
        jobs.iter()
            .map(|job| {
                let mut soc = job
                    .builder()
                    .clone()
                    .build_with(ShardPlan::with_threads(1))
                    .unwrap();
                let result = job
                    .scheme()
                    .diagnose_with(ShardPlan::with_threads(1), soc.memories_mut())
                    .unwrap();
                (soc, result)
            })
            .collect()
    }

    #[test]
    fn zero_jobs_is_an_empty_fleet() {
        let runner = FleetRunner::new(ShardPlan::with_threads(8));
        assert!(runner.run(&[]).unwrap().is_empty());
        assert!(runner.run_all(&[]).unwrap().is_empty());
        let plan = runner.plan(&[]).unwrap();
        assert_eq!(plan.jobs.len(), 0);
        assert_eq!(plan.member_count(), 0);
        assert!(runner.build(&plan).unwrap().is_empty());
        assert!(runner.diagnose(&plan, &mut []).unwrap().is_empty());
    }

    #[test]
    fn empty_job_is_rejected_like_a_solo_build() {
        let job = FleetJob::new(Soc::builder(), FastScheme::new(10.0));
        let runner = FleetRunner::default();
        assert!(runner.run_all(std::slice::from_ref(&job)).is_err());
        // The fault stays in the empty job's own domain.
        let outcomes = runner.run(std::slice::from_ref(&job)).unwrap();
        assert!(matches!(
            outcomes[0],
            Err(FleetError::Memory(MemError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn empty_job_fails_alone_among_healthy_neighbours() {
        let mut jobs = mixed_jobs();
        jobs.insert(1, FleetJob::new(Soc::builder(), FastScheme::new(10.0)));
        let runner = FleetRunner::new(ShardPlan::with_threads(7));
        let outcomes = runner.run(&jobs).unwrap();
        assert!(matches!(
            outcomes[1],
            Err(FleetError::Memory(MemError::InvalidConfig { .. }))
        ));
        // The healthy jobs around it are untouched by the failure.
        let healthy: Vec<&FleetJob> = jobs
            .iter()
            .enumerate()
            .filter(|&(index, _)| index != 1)
            .map(|(_, job)| job)
            .collect();
        let baseline: Vec<FleetJob> = healthy.iter().map(|&job| job.clone()).collect();
        let baseline = serial_baseline(&baseline);
        for (outcome, (_, result)) in outcomes
            .iter()
            .enumerate()
            .filter(|&(index, _)| index != 1)
            .map(|(_, outcome)| outcome)
            .zip(&baseline)
        {
            assert_eq!(outcome.as_ref().unwrap().result(), result);
        }
    }

    #[test]
    fn one_job_under_many_workers_matches_the_solo_run() {
        let jobs = vec![FleetJob::new(
            Soc::builder()
                .memories(3, 64, 12)
                .unwrap()
                .defect_rate(0.02)
                .seed(7),
            FastScheme::new(10.0),
        )];
        let baseline = serial_baseline(&jobs);
        let runner = FleetRunner::new(ShardPlan::with_threads(32));
        let outcomes = runner.run_all(&jobs).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].result(), &baseline[0].1);
        assert_eq!(
            outcomes[0].soc().injected_faults(),
            baseline[0].0.injected_faults()
        );
    }

    #[test]
    fn batched_fleet_matches_per_job_serial_runs() {
        let jobs = mixed_jobs();
        let baseline = serial_baseline(&jobs);
        for threads in [2, 7] {
            let runner = FleetRunner::new(ShardPlan::with_threads(threads));
            let outcomes = runner.run_all(&jobs).unwrap();
            assert_eq!(outcomes.len(), jobs.len());
            for (outcome, (soc, result)) in outcomes.iter().zip(&baseline) {
                assert_eq!(outcome.result(), result, "{threads} threads");
                assert_eq!(outcome.soc().injected_faults(), soc.injected_faults());
            }
        }
    }

    #[test]
    fn sweep_jobs_share_one_plan_and_keep_their_results() {
        let jobs = mixed_jobs();
        let plan = FleetRunner::default().plan(&jobs).unwrap();
        // Jobs 0-2 are one seed sweep over the same memories and scheme;
        // job 3 has other memories.
        for job in 1..3 {
            assert!(std::ptr::eq(plan.population_plan(0), plan.population_plan(job)));
        }
        assert!(!std::ptr::eq(plan.population_plan(0), plan.population_plan(3)));
        let baseline = serial_baseline(&jobs);
        let runner = FleetRunner::new(ShardPlan::with_threads(2));
        let mut socs = runner.build(&plan).unwrap();
        let results = runner.diagnose(&plan, &mut socs).unwrap();
        for (result, (_, expected)) in results.iter().zip(&baseline) {
            assert_eq!(result, expected);
        }
    }

    #[test]
    fn plan_exposes_the_flattened_cost_model() {
        let jobs = mixed_jobs();
        let plan = FleetRunner::default().plan(&jobs).unwrap();
        assert_eq!(plan.jobs.len(), jobs.len());
        assert_eq!(plan.member_count(), 3 * 3 + 4);
        let member_jobs = plan.member_jobs();
        assert_eq!(member_jobs.len(), plan.member_count());
        assert!(
            member_jobs.windows(2).all(|pair| pair[0] <= pair[1]),
            "job-major order"
        );
        assert_eq!(plan.member_costs().len(), plan.member_count());
        assert!(plan.member_costs().iter().all(|&cost| cost > 0));
        assert_eq!(plan.population_plan(3).member_count(), 4);
    }
}
