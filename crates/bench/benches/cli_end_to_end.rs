//! CLI end-to-end time for the checked-in case-study and baseline
//! comparison specs: the full `esram run` pipeline as a library call —
//! read the spec file, parse and validate, compile to a plan, execute
//! through the fleet stack (the Huang baseline for the second spec) and
//! render the report JSON. This is the latency a user pays per
//! invocation (minus process spawn and file writes), recorded in the
//! committed ledger and gated by `perf_gate --strict` like every other
//! group.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::ShardPlan;
use esram_exec::THREADS_ENV;
use esram_spec::{compile_str, execute_plan};
use std::hint::black_box;
use std::path::Path;

/// An example spec the CI conformance job runs; benched from the same
/// bytes.
fn example_source(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(file);
    std::fs::read_to_string(path).expect("example spec is checked in")
}

fn bench_cli(c: &mut Criterion) {
    let source = example_source("case_study_512x100.toml");
    let plan = compile_str(&source).expect("case-study spec compiles");
    let baseline_source = example_source("baseline_comparison.toml");
    let baseline_plan = compile_str(&baseline_source).expect("baseline spec compiles");
    let shard = ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref()).0;

    // Sanity: the benched pipelines are the conformance contracts.
    let run = execute_plan(&plan, &shard).expect("case-study runs");
    assert!(run.all_faults_located, "case study must locate every fault");
    let baseline_run = execute_plan(&baseline_plan, &shard).expect("baseline comparison runs");
    assert_eq!(
        (baseline_run.jobs, baseline_run.failed),
        (4, 0),
        "baseline comparison must run all four jobs"
    );

    let mut group = c.benchmark_group("cli_end_to_end");
    group.sample_size(10);
    group.bench_function("compile_case_study", |b| {
        b.iter(|| black_box(compile_str(&source).unwrap().jobs.len()))
    });
    group.bench_function("run_case_study", |b| {
        b.iter(|| {
            let plan = compile_str(&source).unwrap();
            black_box(execute_plan(&plan, &shard).unwrap().report.render().len())
        })
    });
    group.bench_function("run_baseline_comparison", |b| {
        b.iter(|| {
            let plan = compile_str(&baseline_source).unwrap();
            black_box(execute_plan(&plan, &shard).unwrap().report.render().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cli);
criterion_main!(benches);
