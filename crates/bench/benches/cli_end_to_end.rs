//! CLI end-to-end time for the checked-in case-study spec: the full
//! `esram run` pipeline as a library call — read the spec file, parse
//! and validate, compile to a plan, execute through the fleet stack and
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

/// The spec the CI conformance job runs; benched from the same bytes.
fn case_study_source() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/case_study_512x100.toml");
    std::fs::read_to_string(path).expect("case-study spec is checked in")
}

fn bench_cli(c: &mut Criterion) {
    let source = case_study_source();
    let plan = compile_str(&source).expect("case-study spec compiles");
    let shard = ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref()).0;

    // Sanity: the benched pipeline is the conformance contract.
    let run = execute_plan(&plan, &shard).expect("case-study runs");
    assert!(run.all_faults_located, "case study must locate every fault");

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
    group.finish();
}

criterion_group!(benches, bench_cli);
criterion_main!(benches);
