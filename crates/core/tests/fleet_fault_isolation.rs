//! Chaos suite: per-job fault domains under deterministic failpoint
//! injection.
//!
//! Every test poisons exactly one job of a mixed fleet through a
//! programmatic [`FailpointGuard`] scenario and asserts the isolation
//! contract of [`FleetRunner::run`]: the poisoned job comes back as a
//! structured [`FleetError`] naming the phase, and **every other job's
//! outcome is byte-identical to its solo run** — across worker counts
//! and kernels. The phase methods ([`FleetRunner::build`],
//! [`FleetRunner::diagnose`]) run the same contained phases and report
//! the poisoned job's error. Injected worker delays are asserted to
//! never move a single diagnosis record.
//!
//! A scenario guard is the only way to arm a failpoint, and holding one
//! serialises the tests of this suite against each other.

use esram_diag::{
    DiagnosisKernel, DiagnosisResult, FastScheme, FleetError, FleetJob, FleetPhase, FleetRunner, JobOutcome,
    ShardPlan, Soc,
};
use esram_exec::{failpoint, FailpointGuard};

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// A mixed fleet: heterogeneous geometries, several jobs, both kernels
/// reachable. Deterministic (fixed seeds).
fn mixed_jobs(kernel: DiagnosisKernel) -> Vec<FleetJob> {
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
            FastScheme::new(10.0).with_kernel(kernel),
        ));
    }
    jobs.push(FleetJob::new(
        Soc::builder()
            .memories(4, 128, 20)
            .unwrap()
            .defect_rate(0.01)
            .seed(99),
        FastScheme::new(10.0).with_kernel(kernel),
    ));
    jobs
}

/// Solo-run oracle, computed while no other test's scenario is armed.
fn serial_baseline(jobs: &[FleetJob]) -> Vec<(Soc, DiagnosisResult)> {
    let _quiet = FailpointGuard::disabled();
    jobs.iter()
        .map(|job| {
            let mut soc = job
                .builder()
                .clone()
                .build_with(ShardPlan::sequential())
                .expect("population builds");
            let result = job
                .scheme()
                .diagnose_with(ShardPlan::sequential(), soc.memories_mut())
                .expect("diagnosis runs");
            (soc, result)
        })
        .collect()
}

/// Asserts the poisoned job failed with `expect_error` (and only it),
/// and every other job's outcome matches its solo baseline exactly.
fn assert_isolated(
    outcomes: &[JobOutcome],
    baseline: &[(Soc, DiagnosisResult)],
    poisoned: usize,
    context: &str,
    expect_error: impl Fn(&FleetError) -> bool,
) {
    assert_eq!(outcomes.len(), baseline.len(), "{context}: job count");
    for (job, (outcome, (soc, result))) in outcomes.iter().zip(baseline).enumerate() {
        if job == poisoned {
            let error = outcome
                .as_ref()
                .expect_err(&format!("{context}: poisoned job {job} must fail"));
            assert!(
                expect_error(error),
                "{context}: poisoned job {job} failed with the wrong error: {error:?}"
            );
            continue;
        }
        let outcome = outcome
            .as_ref()
            .unwrap_or_else(|error| panic!("{context}: healthy job {job} failed: {error}"));
        assert_eq!(
            outcome.result(),
            result,
            "{context}: healthy job {job} diverged from its solo run"
        );
        assert_eq!(
            outcome.soc().injected_faults(),
            soc.injected_faults(),
            "{context}: healthy job {job} built a different population"
        );
    }
}

fn all_plans() -> Vec<ShardPlan> {
    WORKER_COUNTS.into_iter().map(ShardPlan::with_threads).collect()
}

#[test]
fn injected_diagnose_panic_fails_only_its_job() {
    failpoint::install_quiet_panic_hook();
    for kernel in [DiagnosisKernel::BitParallel, DiagnosisKernel::PerMemory] {
        let jobs = mixed_jobs(kernel);
        let baseline = serial_baseline(&jobs);
        let _guard = FailpointGuard::scenario("diag.segment@job=1:panic");
        for plan in all_plans() {
            let outcomes = FleetRunner::new(plan).run(&jobs).expect("run survives");
            assert_isolated(
                &outcomes,
                &baseline,
                1,
                &format!("{kernel:?} under {plan}"),
                |error| {
                    matches!(
                        error,
                        FleetError::Panicked {
                            phase: FleetPhase::Diagnose,
                            ..
                        }
                    )
                },
            );
        }
    }
}

#[test]
fn injected_build_error_fails_only_its_job() {
    for kernel in [DiagnosisKernel::BitParallel, DiagnosisKernel::PerMemory] {
        let jobs = mixed_jobs(kernel);
        let baseline = serial_baseline(&jobs);
        let _guard = FailpointGuard::scenario("soc.build@job=2:error");
        for plan in all_plans() {
            let outcomes = FleetRunner::new(plan).run(&jobs).expect("run survives");
            assert_isolated(
                &outcomes,
                &baseline,
                2,
                &format!("{kernel:?} under {plan}"),
                |error| {
                    matches!(
                        error,
                        FleetError::Injected {
                            phase: FleetPhase::Build,
                            site,
                        } if site == "soc.build"
                    )
                },
            );
        }
    }
}

#[test]
fn injected_build_panic_on_one_member_fails_only_its_job() {
    failpoint::install_quiet_panic_hook();
    let jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    let baseline = serial_baseline(&jobs);
    // Member-qualified: only (job 0, member 2) trips; the other jobs
    // also have a member 2, but the job qualifier keeps them healthy —
    // proving qualifier matching requires *all* of the armed pair.
    let _guard = FailpointGuard::scenario("soc.build@job=0:panic,soc.build@member=2:delay(1)");
    for plan in all_plans() {
        let outcomes = FleetRunner::new(plan).run(&jobs).expect("run survives");
        assert_isolated(&outcomes, &baseline, 0, &plan.to_string(), |error| {
            matches!(
                error,
                FleetError::Panicked {
                    phase: FleetPhase::Build,
                    ..
                }
            )
        });
    }
}

#[test]
fn member_qualified_build_error_fails_every_job_with_that_member() {
    let mut jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    // Two members only: no member 2, so this job must stay healthy.
    jobs.push(FleetJob::new(
        Soc::builder()
            .memories(2, 32, 8)
            .unwrap()
            .defect_rate(0.02)
            .seed(7),
        FastScheme::new(10.0),
    ));
    let baseline = serial_baseline(&jobs);
    let _guard = FailpointGuard::scenario("soc.build@member=2:error");
    let mut failed_per_plan = Vec::new();
    for plan in all_plans() {
        let outcomes = FleetRunner::new(plan).run(&jobs).expect("run survives");
        let mut failed = Vec::new();
        for (job, (outcome, (soc, result))) in outcomes.iter().zip(&baseline).enumerate() {
            let has_member_2 = soc.memories().len() > 2;
            match outcome {
                Err(error) => {
                    assert!(
                        has_member_2,
                        "job {job} under {plan} has no member 2 but failed: {error}"
                    );
                    assert!(
                        matches!(
                            error,
                            FleetError::Injected {
                                phase: FleetPhase::Build,
                                site,
                            } if site == "soc.build"
                        ),
                        "job {job} under {plan}: wrong error {error:?}"
                    );
                    failed.push(job);
                }
                Ok(outcome) => {
                    assert!(
                        !has_member_2,
                        "job {job} under {plan} has a member 2 but succeeded"
                    );
                    assert_eq!(outcome.result(), result, "job {job} under {plan} diverged");
                }
            }
        }
        failed_per_plan.push(failed);
    }
    assert_eq!(failed_per_plan[0], vec![0, 1, 2, 3]);
    assert!(
        failed_per_plan.iter().all(|failed| failed == &failed_per_plan[0]),
        "the failed-job set moved with the worker count: {failed_per_plan:?}"
    );
}

#[test]
fn injected_delay_never_changes_results() {
    let jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    let baseline = serial_baseline(&jobs);
    // Unqualified delay at every diagnosis segment: workers finish in
    // injected-noise order, results must not move a byte.
    let _guard = FailpointGuard::scenario("diag.segment:delay(2),soc.build:delay(1)");
    for plan in [ShardPlan::with_threads(7), ShardPlan::with_threads(2)] {
        let outcomes = FleetRunner::new(plan).run_all(&jobs).expect("delays never fail");
        for (job, (outcome, (_, result))) in outcomes.iter().zip(&baseline).enumerate() {
            assert_eq!(
                outcome.result(),
                result,
                "job {job} under {plan}: injected slowdown changed the result"
            );
        }
    }
}

#[test]
fn phase_methods_report_injected_build_errors() {
    let jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    let _guard = FailpointGuard::scenario("soc.build@job=1:error");
    for plan in all_plans() {
        let runner = FleetRunner::new(plan);
        let fleet_plan = runner.plan(&jobs).expect("planning fires no build failpoint");
        let error = runner.build(&fleet_plan).expect_err("job 1's build must fail");
        assert!(
            matches!(
                &error,
                FleetError::Injected {
                    phase: FleetPhase::Build,
                    site,
                } if site == "soc.build"
            ),
            "{plan}: wrong build error {error:?}"
        );
    }
}

#[test]
fn phase_methods_contain_injected_diagnosis_panics() {
    failpoint::install_quiet_panic_hook();
    let jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    let _guard = FailpointGuard::scenario("diag.segment@job=1:panic");
    for plan in all_plans() {
        let runner = FleetRunner::new(plan);
        let fleet_plan = runner.plan(&jobs).expect("fleet plans");
        let mut socs = runner.build(&fleet_plan).expect("fleet builds");
        let error = runner
            .diagnose(&fleet_plan, &mut socs)
            .expect_err("job 1's diagnosis must fail");
        assert!(
            matches!(
                error,
                FleetError::Panicked {
                    phase: FleetPhase::Diagnose,
                    ..
                }
            ),
            "{plan}: wrong diagnosis error {error:?}"
        );
    }
}
