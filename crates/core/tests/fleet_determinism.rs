//! Fleet-batched diagnosis must be *byte-identical*, per job, to each
//! job running alone on one thread: flattening many jobs' members into
//! one executor run moves shard boundaries (possibly across job
//! boundaries) but may never move a single diagnosis record, cycle
//! count or injected fault — at any worker count, under either kernel.

use esram_diag::{
    DiagnosisKernel, DiagnosisResult, FastScheme, FleetJob, FleetRunner, ShardPlan, Soc, SocBuilder,
};
use proptest::prelude::*;

/// The per-job oracle: build and diagnose each job alone, sequentially.
fn serial_baseline(jobs: &[FleetJob]) -> Vec<(Soc, DiagnosisResult)> {
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

/// Asserts a fleet run under `plan` reproduces the serial baseline —
/// built populations bit-identical (ids, ground truth, installed cell
/// faults) and diagnosis results byte-identical, per job.
fn assert_fleet_matches(jobs: &[FleetJob], baseline: &[(Soc, DiagnosisResult)], plan: ShardPlan) {
    let outcomes = FleetRunner::new(plan).run_all(jobs).expect("fleet runs");
    assert_eq!(outcomes.len(), baseline.len(), "{plan}: job count");
    for (job, (outcome, (soc, result))) in outcomes.iter().zip(baseline).enumerate() {
        assert_eq!(outcome.result(), result, "{plan}: diagnosis result of job {job}");
        let (left, right) = (outcome.soc().memories(), soc.memories());
        assert_eq!(left.len(), right.len(), "{plan}: member count of job {job}");
        for (a, b) in left.iter().zip(right) {
            assert_eq!(a.id, b.id, "{plan}: job {job} memory id");
            assert_eq!(
                a.injected, b.injected,
                "{plan}: job {job} ground truth of {}",
                a.id
            );
            assert_eq!(
                a.sram.cell_faults(),
                b.sram.cell_faults(),
                "{plan}: job {job} installed cell faults of {}",
                a.id
            );
        }
    }
}

/// A mixed-geometry fleet: heterogeneous jobs, heterogeneous members
/// within jobs, one single-member job and one clean (defect-free) job.
fn mixed_jobs(kernel: DiagnosisKernel) -> Vec<FleetJob> {
    let scheme = FastScheme::new(10.0).with_kernel(kernel);
    let mut jobs = vec![
        FleetJob::new(
            Soc::builder()
                .memory(64, 16)
                .unwrap()
                .memory(32, 6)
                .unwrap()
                .memories(2, 16, 4)
                .unwrap()
                .defect_rate(0.03)
                .seed(1),
            scheme,
        ),
        FleetJob::new(
            Soc::builder().memory(128, 20).unwrap().defect_rate(0.02).seed(2),
            scheme,
        ),
        FleetJob::new(Soc::builder().memories(3, 32, 8).unwrap().seed(3), scheme),
        FleetJob::new(
            Soc::builder()
                .memories(2, 64, 12)
                .unwrap()
                .defect_rate(0.05)
                .with_data_retention_defects()
                .seed(4),
            scheme,
        ),
    ];
    jobs.push(FleetJob::new(
        Soc::builder()
            .memories(5, 16, 5)
            .unwrap()
            .defect_rate(0.04)
            .seed(5),
        scheme,
    ));
    jobs
}

#[test]
fn fleet_matches_serial_for_every_strategy_thread_count_and_kernel() {
    for kernel in DiagnosisKernel::all() {
        let jobs = mixed_jobs(kernel);
        let baseline = serial_baseline(&jobs);
        for threads in [1usize, 2, 7, 32] {
            assert_fleet_matches(&jobs, &baseline, ShardPlan::with_threads(threads));
        }
    }
}

#[test]
fn phase_methods_chain_to_the_same_results_as_run_all() {
    // `plan`, `build` and `diagnose` are the phases `run` chains;
    // called one by one they must reproduce `run_all` exactly.
    for kernel in DiagnosisKernel::all() {
        let jobs = mixed_jobs(kernel);
        for threads in [1usize, 2, 7] {
            let runner = FleetRunner::new(ShardPlan::with_threads(threads));
            let plan = runner.plan(&jobs).expect("fleet plans");
            let mut socs = runner.build(&plan).expect("fleet builds");
            let phased = runner.diagnose(&plan, &mut socs).expect("fleet diagnoses");
            let chained: Vec<DiagnosisResult> = runner
                .run_all(&jobs)
                .expect("fleet runs")
                .into_iter()
                .map(|outcome| outcome.into_parts().1)
                .collect();
            assert_eq!(phased, chained, "{kernel:?} at {threads} threads");
        }
    }
}

#[test]
fn fleet_under_the_default_plan_matches_serial() {
    // One worker per core, under either kernel: the fleet must equal
    // the per-job sequential oracle.
    for kernel in DiagnosisKernel::all() {
        let jobs = mixed_jobs(kernel);
        let baseline = serial_baseline(&jobs);
        assert_fleet_matches(&jobs, &baseline, ShardPlan::default());
    }
}

#[test]
fn single_member_jobs_saturate_nothing_and_still_match() {
    // 16 one-memory jobs under 32 workers: serial dispatch could never
    // use more than one worker per job; the fleet uses many — and the
    // results must not know the difference.
    for kernel in DiagnosisKernel::all() {
        let scheme = FastScheme::new(10.0).with_kernel(kernel);
        let jobs: Vec<FleetJob> = (0..16u64)
            .map(|index| {
                FleetJob::new(
                    Soc::builder()
                        .memory(32 + index % 3 * 16, 4 + (index % 5) as usize)
                        .unwrap()
                        .defect_rate(0.03)
                        .seed(index),
                    scheme,
                )
            })
            .collect();
        let baseline = serial_baseline(&jobs);
        assert_fleet_matches(&jobs, &baseline, ShardPlan::with_threads(32));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: any random mix of jobs (member counts, geometries,
    /// defect rates, seeds, kernels) diagnoses identically batched and
    /// solo, at 2, 7 and 32 workers. Each job's
    /// shape is unpacked from one random word (member count, words,
    /// width, defect rate and RNG seed from disjoint bit fields).
    #[test]
    fn random_job_mixes_are_identical_batched_and_solo(
        shapes in proptest::collection::vec(any::<u64>(), 1..5),
        bitparallel in any::<bool>(),
    ) {
        let kernel = if bitparallel { DiagnosisKernel::BitParallel } else { DiagnosisKernel::PerMemory };
        let scheme = FastScheme::new(10.0).with_kernel(kernel);
        let jobs: Vec<FleetJob> = shapes
            .iter()
            .map(|&bits| {
                let members = 1 + (bits % 3) as usize;
                let words = 1u64 << (3 + (bits >> 2) % 3);
                let width = 3 + ((bits >> 5) % 6) as usize;
                let rate = ((bits >> 8) % 80) as f64 / 1000.0;
                let builder: SocBuilder = Soc::builder()
                    .memories(members, words, width)
                    .expect("valid geometry")
                    .defect_rate(rate)
                    .seed(bits >> 16);
                FleetJob::new(builder, scheme)
            })
            .collect();
        let baseline = serial_baseline(&jobs);
        for threads in [2, 7, 32] {
            assert_fleet_matches(&jobs, &baseline, ShardPlan::with_threads(threads));
        }
    }
}
