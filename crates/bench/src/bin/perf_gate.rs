//! CI perf-regression gate over the `BENCH_results.json` ledger.
//!
//! Usage:
//!
//! ```text
//! perf_gate --ledger BENCH_results.json --fresh /tmp/fresh.json \
//!           [--prefix fault_sim_throughput/] [--prefix time_models/] \
//!           [--max-ratio 2.0]
//! ```
//!
//! Re-run the benchmark groups into a fresh ledger first (the vendored
//! criterion honours `BENCH_RESULTS_PATH` and merges across bench
//! targets), then gate it against the committed ledger: any benchmark
//! whose mean slowed down by more than `--max-ratio` (default 2.0)
//! fails the process with exit code 1. `--prefix` may be repeated to
//! gate several groups in one invocation; *all* groups are compared and
//! *every* regression is reported before the process exits non-zero —
//! a regression in the first group never masks one in a later group —
//! and the full fresh-vs-committed ratio table is printed on success
//! too, so a green gate still documents the current margins. New
//! benchmarks are reported but do not fail the gate; committed entries
//! the fresh run did not produce are warned about, and fail the gate
//! under `--strict` (what CI passes) so stale ledger entries must be
//! pruned alongside the change that retires them.

use bench::ledger::{gate_groups, parse_ledger, GateReport};
use std::process::ExitCode;

struct Args {
    ledger: String,
    fresh: String,
    prefixes: Vec<String>,
    max_ratio: f64,
    strict: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut ledger = None;
    let mut fresh = None;
    let mut prefixes = Vec::new();
    let mut max_ratio = 2.0f64;
    let mut strict = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--ledger" => ledger = Some(value("--ledger")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--prefix" => prefixes.push(value("--prefix")?),
            "--max-ratio" => {
                let raw = value("--max-ratio")?;
                max_ratio = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or(format!("invalid --max-ratio '{raw}'"))?;
            }
            "--strict" => strict = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if prefixes.is_empty() {
        // No prefix: gate every benchmark in one all-encompassing group.
        prefixes.push(String::new());
    }
    Ok(Args {
        ledger: ledger.ok_or("--ledger is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        prefixes,
        max_ratio,
        strict,
    })
}

fn scope_of(prefix: &str) -> String {
    if prefix.is_empty() {
        "all benchmarks".to_string()
    } else {
        format!("prefix '{prefix}'")
    }
}

fn print_group(prefix: &str, report: &GateReport, max_ratio: f64) {
    println!(
        "perf gate [{}]: {} compared, allowed slowdown {:.2}x",
        scope_of(prefix),
        report.compared.len(),
        max_ratio
    );
    for comparison in &report.compared {
        let verdict = if comparison.regressed(max_ratio) {
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  [{verdict}] {comparison}");
    }
    for name in &report.new_entries {
        println!("  [new] {name} (no committed baseline; commit the refreshed ledger)");
    }
    for name in &report.missing_entries {
        println!("  [missing] {name} (committed but not produced by the fresh run; prune the ledger entry or run the bench)");
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let baseline_text = std::fs::read_to_string(&args.ledger)
        .map_err(|e| format!("cannot read committed ledger {}: {e}", args.ledger))?;
    let fresh_text = std::fs::read_to_string(&args.fresh)
        .map_err(|e| format!("cannot read fresh ledger {}: {e}", args.fresh))?;
    let baseline = parse_ledger(&baseline_text);
    let fresh = parse_ledger(&fresh_text);
    for prefix in &args.prefixes {
        if !fresh.iter().any(|e| e.name.starts_with(prefix.as_str())) {
            return Err(format!(
                "fresh ledger {} contains no entries with {} — did the bench run?",
                args.fresh,
                scope_of(prefix)
            ));
        }
    }

    // Compare every group before deciding the verdict, so the output
    // always holds the complete regression list (and, on success, the
    // complete ratio table).
    let groups = gate_groups(&baseline, &fresh, &args.prefixes);
    for (prefix, report) in &groups {
        print_group(prefix, report, args.max_ratio);
    }

    let regressed: usize = groups
        .iter()
        .map(|(_, report)| report.regressions(args.max_ratio).len())
        .sum();
    let missing: usize = groups.iter().map(|(_, r)| r.missing_entries.len()).sum();
    let passed = groups.iter().all(|(_, report)| {
        if args.strict {
            report.passes_strict(args.max_ratio)
        } else {
            report.passes(args.max_ratio)
        }
    });
    if args.strict && missing > 0 {
        println!(
            "perf gate FAILED (--strict): {missing} committed ledger entr{} the fresh run did not produce",
            if missing == 1 { "y" } else { "ies" }
        );
    }
    if regressed > 0 {
        println!(
            "perf gate FAILED: {regressed} benchmark(s) regressed beyond {:.2}x across {} group(s)",
            args.max_ratio,
            groups.len()
        );
    }
    if passed {
        println!(
            "perf gate passed ({} group(s), {} benchmark(s) within {:.2}x)",
            groups.len(),
            groups.iter().map(|(_, r)| r.compared.len()).sum::<usize>(),
            args.max_ratio
        );
    }
    Ok(passed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_gate: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_gate: {message}");
            ExitCode::from(2)
        }
    }
}
