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
//! the poisoned job's error. Cancellation and deadlines are asserted
//! to tear down cleanly (state reusable, immediate rerun matches the
//! baseline), and injected worker delays are asserted to never move a
//! single diagnosis record.
//!
//! Scenario guards take full precedence over `ESRAM_FAILPOINTS`, so
//! this suite is immune to whatever the CI chaos matrix arms in the
//! environment; the ambient-env rows are covered by the companion
//! `fleet_env_chaos` suite.

use esram_diag::{
    DiagnosisKernel, DiagnosisResult, FastScheme, FleetError, FleetJob, FleetPhase, FleetRunner, JobOutcome,
    RunToken, ShardPlan, Soc,
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

/// Solo-run oracle, computed with all failpoints disarmed so an armed
/// environment cannot skew the expectation.
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
fn cancelled_fleet_fails_globally_and_is_reusable() {
    let _quiet = FailpointGuard::disabled();
    let jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    let token = RunToken::new();
    token.cancel();
    let runner = FleetRunner::new(ShardPlan::with_threads(7)).with_token(token);
    assert_eq!(runner.run(&jobs).unwrap_err(), FleetError::Cancelled);

    // Clean teardown: nothing is poisoned — the same jobs rerun under a
    // fresh token and match the baseline byte for byte.
    let baseline = {
        let mut soc = jobs[0]
            .builder()
            .clone()
            .build_with(ShardPlan::sequential())
            .unwrap();
        jobs[0]
            .scheme()
            .diagnose_with(ShardPlan::sequential(), soc.memories_mut())
            .unwrap()
    };
    let rerun = FleetRunner::new(ShardPlan::with_threads(7))
        .run_all(&jobs)
        .expect("rerun after cancellation");
    assert_eq!(rerun[0].result(), &baseline);
}

#[test]
fn expired_deadline_fails_globally() {
    let _quiet = FailpointGuard::disabled();
    let jobs = mixed_jobs(DiagnosisKernel::BitParallel);
    let token = RunToken::with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
    let runner = FleetRunner::new(ShardPlan::with_threads(2)).with_token(token);
    assert_eq!(runner.run(&jobs).unwrap_err(), FleetError::Deadline);
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
