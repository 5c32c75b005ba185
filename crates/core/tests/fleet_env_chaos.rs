//! Ambient-environment chaos: graceful degradation under whatever
//! `ESRAM_FAILPOINTS` the CI chaos matrix arms.
//!
//! Unlike `fleet_fault_isolation` (which installs programmatic
//! scenarios that override the environment), this suite runs the fleet
//! under the *ambient* failpoint set. The contract it asserts holds for
//! any armed specs:
//!
//! * the fleet call itself survives — injected faults land in per-job
//!   [`JobOutcome`] slots, never a process abort;
//! * every job that succeeds is byte-identical to its solo baseline
//!   (computed with injection disarmed);
//! * with nothing armed, every job succeeds;
//! * the set of failed jobs is identical across worker counts —
//!   injection is deterministic, not scheduling-dependent.
//!
//! The CI rows run this binary with e.g.
//! `ESRAM_FAILPOINTS="diag.segment@job=1:panic"` or
//! `ESRAM_FAILPOINTS="soc.build@member=2:error"` armed.

use esram_diag::{DiagnosisResult, FastScheme, FleetJob, FleetRunner, ShardPlan, Soc};
use esram_exec::{failpoint, FailpointGuard, FailpointSet, FAILPOINTS_ENV};

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

#[test]
fn ambient_failpoints_degrade_gracefully() {
    failpoint::install_quiet_panic_hook();
    let jobs = mixed_jobs();

    // The solo oracle, computed with every failpoint disarmed; the
    // guard is dropped before the ambient runs below.
    let baseline: Vec<DiagnosisResult> = {
        let _quiet = FailpointGuard::disabled();
        jobs.iter()
            .map(|job| {
                let mut soc = job
                    .builder()
                    .clone()
                    .build_with(ShardPlan::sequential())
                    .expect("population builds");
                job.scheme()
                    .diagnose_with(ShardPlan::sequential(), soc.memories_mut())
                    .expect("diagnosis runs")
            })
            .collect()
    };

    let armed = std::env::var(FAILPOINTS_ENV)
        .ok()
        .and_then(|raw| FailpointSet::parse(&raw))
        .map(|set| !set.is_empty())
        .unwrap_or(false);

    let mut failed_jobs: Option<Vec<usize>> = None;
    for threads in [1, 2, 7] {
        let plan = ShardPlan::with_threads(threads);
        let outcomes = FleetRunner::new(plan)
            .run(&jobs)
            .expect("injected faults must never fail the fleet call itself");
        let mut failed = Vec::new();
        for (job, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok(outcome) => assert_eq!(
                    outcome.result(),
                    &baseline[job],
                    "job {job} under {plan}: succeeded but diverged from its solo run"
                ),
                Err(error) => {
                    assert!(
                        armed,
                        "job {job} under {plan} failed with no failpoint armed: {error}"
                    );
                    failed.push(job);
                }
            }
        }
        match &failed_jobs {
            None => failed_jobs = Some(failed),
            Some(expected) => assert_eq!(
                &failed, expected,
                "under {plan}: injection hit a different job set — not deterministic"
            ),
        }
    }
    if !armed {
        assert_eq!(
            failed_jobs,
            Some(Vec::new()),
            "no failpoints armed, yet jobs failed"
        );
    }
}
