//! End-to-end conformance for the `esram` binary: the CI
//! `spec-conformance` job runs these same contracts from the shell, and
//! this suite keeps them enforced in every plain `cargo test` run too.
//!
//! * `run` on the checked-in examples reproduces the committed goldens
//!   byte for byte (report.json only; timing.json is wall-clock).
//! * The case-study report carries the paper's numbers: Eq. (2)-exact
//!   cycles, k = 96, R >= 84, and every injected fault located.
//! * Reports are byte-identical across `ESRAM_DIAG_THREADS` in
//!   {1, 2, 7, 32}, which `timing.json` records, and under the
//!   per-memory oracle kernel.
//! * A set `ESRAM_*` variable the CLI does not read draws a warning and
//!   changes nothing.
//! * Malformed specs exit non-zero with a span-bearing error message.

use esram_spec::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn example(name: &str) -> PathBuf {
    repo_root().join("examples").join(name)
}

fn golden(name: &str) -> PathBuf {
    repo_root()
        .join("examples/goldens")
        .join(name)
        .join("report.json")
}

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

/// A fresh per-test output directory under the target tmp dir.
fn out_dir(tag: &str) -> PathBuf {
    let serial = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "esram-cli-conformance-{}-{tag}-{serial}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// The binary with the given args and knobs, in `cwd`, with every
/// ambient `ESRAM_*` variable cleared first so the calling environment
/// cannot skew a test.
fn esram_command(args: &[&str], knobs: &[(&str, &str)], cwd: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_esram"));
    command.args(args).current_dir(cwd);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ESRAM_") {
            command.env_remove(key);
        }
    }
    for (key, value) in knobs {
        command.env(key, value);
    }
    command
}

/// Runs the binary from the repository root.
fn esram(args: &[&str], knobs: &[(&str, &str)]) -> Output {
    esram_command(args, knobs, &repo_root())
        .output()
        .expect("esram binary must spawn")
}

/// Runs a spec file into a fresh directory and returns the process
/// output with the written `report.json` and `timing.json`.
fn run_spec_path(spec: &Path, tag: &str, knobs: &[(&str, &str)]) -> (Output, String, String) {
    let dir = out_dir(tag);
    let output = esram(
        &["run", spec.to_str().unwrap(), "--out", dir.to_str().unwrap()],
        knobs,
    );
    let report = std::fs::read_to_string(dir.join("report.json")).unwrap_or_default();
    let timing = std::fs::read_to_string(dir.join("timing.json")).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    (output, report, timing)
}

fn run_spec(spec: &str, tag: &str, knobs: &[(&str, &str)]) -> (Output, String) {
    let (output, report, _) = run_spec_path(&example(spec), tag, knobs);
    (output, report)
}

#[test]
fn compile_accepts_the_checked_in_examples() {
    for spec in [
        "case_study_512x100.toml",
        "defect_rate_sweep.toml",
        "baseline_comparison.toml",
    ] {
        let output = esram(&["compile", example(spec).to_str().unwrap()], &[]);
        assert!(output.status.success(), "compile {spec} failed: {output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("spec OK"), "unexpected compile output: {stdout}");
    }
}

#[test]
fn case_study_reproduces_the_committed_golden_and_the_paper_numbers() {
    let (output, report) = run_spec("case_study_512x100.toml", "golden", &[]);
    assert!(output.status.success(), "run failed: {output:?}");
    let committed = std::fs::read_to_string(golden("case_study_512x100")).unwrap();
    assert_eq!(
        report, committed,
        "case-study report drifted from the committed golden"
    );

    let document = Json::parse(&report).unwrap();
    let job = &document.get("jobs").and_then(Json::as_array).unwrap()[0];
    let int = |key: &str| job.get(key).and_then(Json::as_int).unwrap();
    // The paper's case study: Eq. (2) = 2nc + 4n + 2c + 2(n + c)(w - 1)
    // at n = 512, c = 100, w = 97 gives 998 440 cycles (9.9844 ms at
    // 10 ns); Eq. (1) at k = 96 gives 84 019 200 cycles, an R > 84x
    // reduction — and every injected fault is located.
    assert_eq!(int("cycles"), 998_440);
    assert_eq!(int("cycles"), int("eq2_cycles"));
    assert_eq!(job.get("analytic_exact").and_then(Json::as_bool), Some(true));
    assert_eq!(int("eq1_k"), 96);
    assert_eq!(int("eq1_cycles"), 84_019_200);
    assert_eq!(job.get("all_faults_located").and_then(Json::as_bool), Some(true));
    assert_eq!(int("injected"), int("located_injected"));
    match job.get("modeled_reduction") {
        Some(Json::Float(reduction)) => assert!(*reduction >= 84.0, "R = {reduction} < 84"),
        other => panic!("modeled_reduction missing: {other:?}"),
    }
    assert_eq!(
        document
            .get("summary")
            .and_then(|s| s.get("all_faults_located"))
            .and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn sweep_example_reproduces_the_committed_golden() {
    let (output, report) = run_spec("defect_rate_sweep.toml", "sweep", &[]);
    assert!(output.status.success(), "run failed: {output:?}");
    let committed = std::fs::read_to_string(golden("defect_rate_sweep")).unwrap();
    assert_eq!(
        report, committed,
        "sweep report drifted from the committed golden"
    );
}

#[test]
fn baseline_example_reproduces_the_committed_golden() {
    let (output, report) = run_spec("baseline_comparison.toml", "baseline", &[]);
    assert!(output.status.success(), "run failed: {output:?}");
    let committed = std::fs::read_to_string(golden("baseline_comparison")).unwrap();
    assert_eq!(
        report, committed,
        "baseline report drifted from the committed golden"
    );
    // The spec exists to exercise the baseline's repeated M1 iterations.
    let document = Json::parse(&report).unwrap();
    let jobs = document.get("jobs").and_then(Json::as_array).unwrap();
    assert!(
        jobs.iter()
            .all(|job| job.get("iterations").and_then(Json::as_int) >= Some(2)),
        "every baseline job must need k >= 2 M1 iterations"
    );
}

#[test]
fn reports_are_byte_identical_across_threads() {
    for (name, threads) in ["case_study_512x100", "defect_rate_sweep", "baseline_comparison"]
        .into_iter()
        .flat_map(|name| ["1", "2", "7", "32"].map(|threads| (name, threads)))
    {
        let committed = std::fs::read_to_string(golden(name)).unwrap();
        let (output, report, timing) = run_spec_path(
            &example(&format!("{name}.toml")),
            &format!("det-{name}-{threads}"),
            &[("ESRAM_DIAG_THREADS", threads)],
        );
        assert!(
            output.status.success(),
            "{name} run ({threads} threads) failed: {output:?}"
        );
        assert_eq!(
            report, committed,
            "{name} report bytes differ at {threads} threads"
        );
        // The knob must take effect: the plan the run used is recorded.
        let timing = Json::parse(&timing).unwrap();
        assert_eq!(
            timing.get("shard_plan").and_then(Json::as_str),
            Some(format!("{threads} thread(s)").as_str()),
            "ESRAM_DIAG_THREADS={threads} did not reach the run"
        );
    }
}

#[test]
fn per_memory_kernel_reproduces_the_committed_goldens() {
    // The end-to-end differential check of the dense oracle: the same
    // specs pinned to `kernel = "per-memory"` must give the golden
    // bytes, apart from the echoed kernel name.
    for name in ["case_study_512x100", "defect_rate_sweep", "baseline_comparison"] {
        let source = std::fs::read_to_string(example(&format!("{name}.toml"))).unwrap();
        let dir = out_dir(&format!("permem-spec-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.toml");
        std::fs::write(&spec, format!("{source}\n[execution]\nkernel = \"per-memory\"\n")).unwrap();
        let (output, report, _) = run_spec_path(&spec, &format!("permem-{name}"), &[]);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            output.status.success(),
            "per-memory run of {name} failed: {output:?}"
        );
        let pinned = "\"kernel\": \"permem\",";
        assert!(report.contains(pinned), "{name}: the pinned kernel is not echoed");
        let committed = std::fs::read_to_string(golden(name)).unwrap();
        assert_eq!(
            report.replacen(pinned, "\"kernel\": \"inherit\",", 1),
            committed,
            "{name}: the per-memory kernel drifted from the committed golden"
        );
    }
}

#[test]
fn unread_esram_variables_warn_and_change_nothing() {
    let baseline = std::fs::read_to_string(golden("case_study_512x100")).unwrap();
    // `ESRAM_FAILPOINTS` carries a well-formed spec that would fail the
    // run if anything still armed failpoints from the environment.
    for (retired, value) in [
        ("ESRAM_DIAG_SCHED", "permem"),
        ("ESRAM_DIAG_KERNEL", "permem"),
        ("ESRAM_FAULTSIM_KERNEL", "permem"),
        ("ESRAM_FAILPOINTS", "diag.segment:panic"),
    ] {
        let (output, report) = run_spec(
            "case_study_512x100.toml",
            &format!("retired-{retired}"),
            &[(retired, value)],
        );
        assert_eq!(output.status.code(), Some(0), "{retired}: {output:?}");
        assert_eq!(report, baseline, "{retired} moved the report bytes");
        let stderr = String::from_utf8(output.stderr).unwrap();
        let warnings: Vec<&str> = stderr
            .lines()
            .filter(|line| line.starts_with("warning:"))
            .collect();
        assert_eq!(
            warnings.len(),
            1,
            "{retired}: expected one warning, got {stderr:?}"
        );
        assert!(warnings[0].contains(retired), "{retired}: {stderr:?}");
    }
}

#[test]
fn malformed_specs_fail_with_span_bearing_errors() {
    for spec in [
        "invalid/bad_geometry.toml",
        "invalid/unknown_scheme.toml",
        "invalid/trailing_garbage.toml",
        "invalid/unknown_faultsim_kernel.toml",
        "invalid/huge_count.toml",
        "invalid/deep_nesting.toml",
    ] {
        let output = esram(&["compile", example(spec).to_str().unwrap()], &[]);
        assert_eq!(output.status.code(), Some(1), "{spec} must exit 1: {output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains("line ") && stderr.contains("column "),
            "{spec} error lacks a span: {stderr}"
        );
        // `run` must reject the same spec identically.
        let run = esram(
            &["run", example(spec).to_str().unwrap(), "--out", "/tmp/unused"],
            &[],
        );
        assert_eq!(run.status.code(), Some(1), "{spec} run must exit 1");
    }
}

#[test]
fn oversized_spec_is_rejected_before_anything_is_allocated() {
    let spec = example("invalid/huge_count.toml");
    let output = esram(&["run", spec.to_str().unwrap(), "--out", "/tmp/unused"], &[]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("line 9, column 9") && stderr.contains("'count'"),
        "the rejection must point at the count: {stderr}"
    );
}

#[test]
fn deeply_nested_input_is_rejected_instead_of_overflowing_the_stack() {
    let dir = out_dir("deep-nesting");
    std::fs::create_dir_all(&dir).unwrap();
    let nested = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let spec = dir.join("deep.toml");
    std::fs::write(
        &spec,
        format!(
            "[scenario]\nname = \"deep\"\n\n[[memory]]\nwords = 64\nwidth = 8\n\n[sweep]\nseeds = {nested}\n"
        ),
    )
    .unwrap();
    let report = dir.join("report.json");
    std::fs::write(&report, &nested).unwrap();

    let spec = spec.to_str().unwrap();
    let out = dir.join("out");
    for args in [
        vec!["compile", spec],
        vec!["run", spec, "--out", out.to_str().unwrap()],
        vec!["report", report.to_str().unwrap()],
    ] {
        let output = esram(&args, &[]);
        assert_eq!(output.status.code(), Some(1), "{args:?} must exit 1: {output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("nested more than"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_subcommand_summarises_a_golden() {
    let dir = golden("case_study_512x100");
    let output = esram(&["report", dir.parent().unwrap().to_str().unwrap()], &[]);
    assert!(output.status.success(), "report failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("case_study_512x100"),
        "summary lacks scenario: {stdout}"
    );
    assert!(
        stdout.contains("all faults located: true"),
        "summary verdict wrong: {stdout}"
    );
}

#[test]
fn spec_out_env_knob_sets_the_output_directory() {
    let dir = out_dir("env-knob");
    let output = esram(
        &["run", example("case_study_512x100.toml").to_str().unwrap()],
        &[("ESRAM_SPEC_OUT", dir.to_str().unwrap())],
    );
    assert!(output.status.success(), "run failed: {output:?}");
    assert!(
        dir.join("report.json").is_file(),
        "ESRAM_SPEC_OUT was not honoured"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blank_spec_out_warns_and_falls_back_to_the_default_directory() {
    // A set-but-blank override would otherwise write the reports to the
    // working directory while the environment claims an override.
    let cwd = out_dir("blank-spec-out");
    std::fs::create_dir_all(&cwd).unwrap();
    let output = esram_command(
        &["run", example("case_study_512x100.toml").to_str().unwrap()],
        &[("ESRAM_SPEC_OUT", "   ")],
        &cwd,
    )
    .output()
    .expect("esram binary must spawn");
    assert!(output.status.success(), "run failed: {output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("warning: ESRAM_SPEC_OUT=\"   \" is not a valid value"),
        "blank ESRAM_SPEC_OUT was accepted silently: {stderr:?}"
    );
    assert!(
        cwd.join("esram-out/case_study_512x100/report.json").is_file(),
        "the run did not fall back to esram-out/<name>"
    );
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn usage_errors_exit_2() {
    for args in [&[][..], &["frobnicate"][..], &["run"][..]] {
        let output = esram(args, &[]);
        assert_eq!(output.status.code(), Some(2), "usage error must exit 2: {args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("usage: esram"), "usage text missing: {stderr}");
    }
}
