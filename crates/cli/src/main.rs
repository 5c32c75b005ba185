//! The `esram` command-line interface.
//!
//! Three subcommands drive the spec pipeline end to end:
//!
//! * `esram compile <spec.toml>` — parse and validate only; prints a
//!   plan summary, exits non-zero with a span-bearing error for any
//!   malformed spec.
//! * `esram run <spec.toml> [--out <dir>]` — compile and execute the
//!   spec through the fleet stack, writing `report.json` (deterministic
//!   bytes) and `timing.json` (wall-clock, excluded from golden diffs)
//!   into the output directory.
//! * `esram report <report.json | dir>` — render a human-readable
//!   summary of a previously written report.
//!
//! The CLI is the entry point that turns the environment into
//! configuration; the libraries it drives read none of it. `run`
//! reads two variables:
//!
//! * `ESRAM_DIAG_THREADS` — the worker count (default: available
//!   cores). The report bytes are identical at every count; the count
//!   in use is recorded in `timing.json`.
//! * `ESRAM_SPEC_OUT` — the output directory. `--out` beats it, it
//!   beats the spec's own `[report] dir`, which beats the default
//!   `esram-out/<name>`.
//!
//! Any other `ESRAM_*` variable that is set — a retired knob such as
//! `ESRAM_DIAG_SCHED`, or a typo — draws one warning on stderr and has
//! no effect. The diagnosis kernel is chosen by the spec's
//! `[execution] kernel`. A spec's `[execution] faultsim_kernel` is
//! validated and recorded in the report, not applied: spec runs never
//! simulate faults.
//!
//! Exit codes: 0 success, 1 spec/run failure (including any failed job
//! in the report), 2 usage error.

use esram_exec::{env, ShardPlan, THREADS_ENV};
use esram_spec::{execute_plan, summarize, Json, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Environment override for the `run` output directory (see the module
/// documentation for the precedence).
const SPEC_OUT_ENV: &str = "ESRAM_SPEC_OUT";

/// Every `ESRAM_*` variable a run reads. A set variable outside this
/// list draws a warning.
const READ_VARIABLES: [&str; 2] = [THREADS_ENV, SPEC_OUT_ENV];

const USAGE: &str = "usage: esram <command> [args]

commands:
  compile <spec.toml>           validate a spec and print its plan
  run <spec.toml> [--out <dir>] execute a spec and write report files
  report <report.json | dir>    summarise a previously written report

The run output directory resolves as: --out, then $ESRAM_SPEC_OUT,
then the spec's [report] dir, then esram-out/<scenario name>.";

enum CliError {
    /// Wrong invocation: print usage, exit 2.
    Usage(String),
    /// Spec or run failure: print the message, exit 1.
    Failure(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("compile") => compile(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("report") => report(&args[1..]),
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
        None => Err(CliError::Usage("no command given".to_string())),
    }
}

fn compile(args: &[String]) -> Result<(), CliError> {
    let [spec_path] = args else {
        return Err(CliError::Usage("compile takes exactly one spec path".to_string()));
    };
    let spec = load_spec(spec_path)?;
    let plan = spec.compile();
    println!("spec OK: {}", plan.name);
    println!(
        "scheme: {} (clock {} ns)",
        plan.scheme.kind_name(),
        plan.scheme.clock_ns()
    );
    let cells: u64 = plan.jobs.first().map(|job| job.total_cells()).unwrap_or(0);
    println!(
        "jobs: {} ({} memories, {} cells each)",
        plan.jobs.len(),
        plan.memories_per_job(),
        cells
    );
    for job in &plan.jobs {
        println!("  {}", job.label);
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (spec_path, out_flag) = match args {
        [spec] => (spec, None),
        [spec, flag, dir] if flag == "--out" => (spec, Some(dir.clone())),
        _ => {
            return Err(CliError::Usage(
                "run takes a spec path and an optional --out <dir>".to_string(),
            ));
        }
    };

    warn_unread_variables();
    let spec = load_spec(spec_path)?;
    let plan = spec.compile();
    let out_dir = resolve_out_dir(&plan.name, plan.report.dir.as_deref(), out_flag);

    let (shard, _) = ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref());
    let started = Instant::now();
    let run = execute_plan(&plan, &shard).map_err(CliError::Failure)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    std::fs::create_dir_all(&out_dir)
        .map_err(|error| CliError::Failure(format!("cannot create {}: {error}", out_dir.display())))?;
    write_file(&out_dir.join("report.json"), &run.report.render())?;
    let timing = Json::object(vec![
        ("format", Json::Str("esram-timing/1".to_string())),
        ("scenario", Json::Str(plan.name.clone())),
        ("wall_ms", Json::Float(wall_ms)),
        ("shard_plan", Json::Str(shard.to_string())),
    ]);
    write_file(&out_dir.join("timing.json"), &timing.render())?;

    println!(
        "ran {} job(s), {} failed, all faults located: {}",
        run.jobs, run.failed, run.all_faults_located
    );
    println!("report: {}", out_dir.join("report.json").display());
    if run.failed > 0 {
        return Err(CliError::Failure(format!(
            "{} job(s) failed (see the report's failed rows)",
            run.failed
        )));
    }
    Ok(())
}

fn report(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage(
            "report takes exactly one report path or directory".to_string(),
        ));
    };
    let mut path = PathBuf::from(path);
    if path.is_dir() {
        path = path.join("report.json");
    }
    let raw = std::fs::read_to_string(&path)
        .map_err(|error| CliError::Failure(format!("cannot read {}: {error}", path.display())))?;
    let document =
        Json::parse(&raw).map_err(|error| CliError::Failure(format!("{}: {error}", path.display())))?;
    let summary =
        summarize(&document).map_err(|error| CliError::Failure(format!("{}: {error}", path.display())))?;
    print!("{summary}");
    Ok(())
}

fn load_spec(path: &str) -> Result<ScenarioSpec, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|error| CliError::Failure(format!("cannot read {path}: {error}")))?;
    ScenarioSpec::parse(&source).map_err(|error| CliError::Failure(format!("{path}: {error}")))
}

/// `--out` beats `ESRAM_SPEC_OUT` beats the spec's `[report] dir`
/// beats `esram-out/<name>`.
fn resolve_out_dir(name: &str, spec_dir: Option<&str>, out_flag: Option<String>) -> PathBuf {
    if let Some(dir) = out_flag {
        return PathBuf::from(dir);
    }
    let spec_out = std::env::var(SPEC_OUT_ENV).ok();
    if let Some(dir) = env::read_knob(SPEC_OUT_ENV, spec_out.as_deref(), parse_spec_out, || {
        "the spec's own report directory".to_string()
    }) {
        return PathBuf::from(dir);
    }
    if let Some(dir) = spec_dir {
        return PathBuf::from(dir);
    }
    Path::new("esram-out").join(name)
}

/// Parser for [`SPEC_OUT_ENV`]: any non-blank path is accepted
/// verbatim; a set-but-blank value is malformed (it would silently
/// write reports to the current directory while the environment claims
/// an override is in force).
fn parse_spec_out(raw: &str) -> Option<String> {
    (!raw.trim().is_empty()).then(|| raw.to_string())
}

/// Warns once for every set `ESRAM_*` variable that no part of a run
/// reads, so a retired knob or a typo cannot silently claim to
/// configure the run.
fn warn_unread_variables() {
    for (key, _) in std::env::vars_os() {
        let Some(key) = key.to_str() else { continue };
        if key.starts_with("ESRAM_") && !READ_VARIABLES.contains(&key) {
            eprintln!("warning: {key} is set but esram does not read it; it has no effect");
        }
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|error| CliError::Failure(format!("cannot write {}: {error}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_out_accepts_any_non_blank_path_and_rejects_blank_ones() {
        assert_eq!(parse_spec_out("/tmp/reports"), Some("/tmp/reports".to_string()));
        assert_eq!(parse_spec_out("relative/dir"), Some("relative/dir".to_string()));
        // Leading/trailing whitespace alone is not a directory.
        assert_eq!(parse_spec_out(""), None);
        assert_eq!(parse_spec_out("   "), None);
    }
}
